//go:build amd64 && !race

#include "go_asm.h"
#include "textflag.h"

// The AVX2 window-scan kernels. Each vector lane holds one window, so a
// lane's VADDPD is the Go kernel's add for that window, and a sum never
// takes its terms in another order. The max kernels keep four vectors of
// running maxima and reduce them at the end. A max is an exact selection,
// so any order of comparison returns the value the Go kernels' in-order
// loop returns, provided no input is NaN or -0 (see window.go). They may
// also read a window twice (the first four windows start every running
// max, and the last four are taken on their own), which a max does not
// notice. Each kernel jumps to its Go reference when hasAVX2 is false or
// when its lengths break the Go kernel's preconditions, so a bad call
// panics there as it always did.
//
// extend holds one child per register and one window per lane: each load
// of the prefix's sums feeds four VADDPDs, one per child, and each is the
// add addMaxGo makes for that child and window. After a trajectory's last
// window a 4×4 transpose, taking a max at each of its two steps, leaves
// each child's max in a lane of its own, so one store per lane ends the
// four reductions.

// func add(dst, a, b []float64)
TEXT ·add(SB), NOSPLIT, $0-72
	CMPB ·hasAVX2(SB), $0
	JEQ  add_go
	MOVQ dst_len+8(FP), CX
	CMPQ a_len+32(FP), CX
	JLT  add_go
	CMPQ b_len+56(FP), CX
	JLT  add_go
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	XORQ AX, AX

	// Sixteen windows a round. Every load of a round precedes its stores,
	// so dst may start where a starts.
	MOVQ CX, BX
	ANDQ $-16, BX
	JZ   add_quads

add_blocks:
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 32(SI)(AX*8), Y1
	VMOVUPD 64(SI)(AX*8), Y2
	VMOVUPD 96(SI)(AX*8), Y3
	VADDPD  (DX)(AX*8), Y0, Y0
	VADDPD  32(DX)(AX*8), Y1, Y1
	VADDPD  64(DX)(AX*8), Y2, Y2
	VADDPD  96(DX)(AX*8), Y3, Y3
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, BX
	JLT     add_blocks

add_quads:
	MOVQ CX, BX
	ANDQ $-4, BX
	CMPQ AX, BX
	JGE  add_singles

add_quadloop:
	VMOVUPD (SI)(AX*8), Y0
	VADDPD  (DX)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     add_quadloop

	// The last one to three windows one at a time: dst may alias a, so
	// re-adding windows already written would add twice.
add_singles:
	CMPQ AX, CX
	JGE  add_done

add_singleloop:
	VMOVSD (SI)(AX*8), X0
	VADDSD (DX)(AX*8), X0, X0
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    add_singleloop

add_done:
	VZEROUPPER
	RET

add_go:
	JMP ·addGo(SB)

// func addMax(acc, src []float64) float64
TEXT ·addMax(SB), NOSPLIT, $0-56
	CMPB ·hasAVX2(SB), $0
	JEQ  addmax_go
	MOVQ acc_len+8(FP), CX
	CMPQ src_len+32(FP), CX
	JLT  addmax_go
	MOVQ acc_base+0(FP), SI
	MOVQ src_base+24(FP), DX
	CMPQ CX, $4
	JLT  addmax_short

	// Windows 0-3 start every running max.
	VMOVUPD (SI), Y0
	VADDPD  (DX), Y0, Y0
	VMOVAPD Y0, Y1
	VMOVAPD Y0, Y2
	VMOVAPD Y0, Y3
	MOVQ    $4, AX

	// Sixteen windows a round while a whole round remains.
	LEAQ -16(CX), BX
	CMPQ AX, BX
	JGT  addmax_quads

addmax_blocks:
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VMOVUPD 64(SI)(AX*8), Y6
	VMOVUPD 96(SI)(AX*8), Y7
	VADDPD  (DX)(AX*8), Y4, Y4
	VADDPD  32(DX)(AX*8), Y5, Y5
	VADDPD  64(DX)(AX*8), Y6, Y6
	VADDPD  96(DX)(AX*8), Y7, Y7
	VMAXPD  Y4, Y0, Y0
	VMAXPD  Y5, Y1, Y1
	VMAXPD  Y6, Y2, Y2
	VMAXPD  Y7, Y3, Y3
	ADDQ    $16, AX
	CMPQ    AX, BX
	JLE     addmax_blocks

	// Four windows a round up to the last four, which are taken on their
	// own whether or not a round already took some of them.
addmax_quads:
	LEAQ -4(CX), BX
	CMPQ AX, BX
	JGE  addmax_last

addmax_quadloop:
	VMOVUPD (SI)(AX*8), Y4
	VADDPD  (DX)(AX*8), Y4, Y4
	VMAXPD  Y4, Y0, Y0
	ADDQ    $4, AX
	CMPQ    AX, BX
	JLT     addmax_quadloop

addmax_last:
	VMOVUPD (SI)(BX*8), Y4
	VADDPD  (DX)(BX*8), Y4, Y4
	VMAXPD  Y4, Y1, Y1

	// Reduce the four vectors to one, then its four lanes to one.
	VMAXPD       Y1, Y0, Y0
	VMAXPD       Y3, Y2, Y2
	VMAXPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VMAXSD       X1, X0, X0
	VZEROUPPER
	VMOVSD       X0, ret+48(FP)
	RET

	// One to three windows, in order.
addmax_short:
	TESTQ  CX, CX
	JEQ    addmax_go
	VMOVSD (SI), X0
	VADDSD (DX), X0, X0
	MOVQ   $1, AX
	CMPQ   AX, CX
	JGE    addmax_shortdone

addmax_shortloop:
	VMOVSD (SI)(AX*8), X1
	VADDSD (DX)(AX*8), X1, X1
	VMAXSD X1, X0, X0
	INCQ   AX
	CMPQ   AX, CX
	JLT    addmax_shortloop

addmax_shortdone:
	VMOVSD X0, ret+48(FP)
	RET

addmax_go:
	JMP ·addMaxGo(SB)

// func maxOf(v []float64) float64
TEXT ·maxOf(SB), NOSPLIT, $0-32
	CMPB ·hasAVX2(SB), $0
	JEQ  maxof_go
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	CMPQ CX, $4
	JLT  maxof_short

	// Elements 0-3 start every running max.
	VMOVUPD (SI), Y0
	VMOVAPD Y0, Y1
	VMOVAPD Y0, Y2
	VMOVAPD Y0, Y3
	MOVQ    $4, AX

	// Sixteen elements a round while a whole round remains.
	LEAQ -16(CX), BX
	CMPQ AX, BX
	JGT  maxof_quads

maxof_blocks:
	VMAXPD (SI)(AX*8), Y0, Y0
	VMAXPD 32(SI)(AX*8), Y1, Y1
	VMAXPD 64(SI)(AX*8), Y2, Y2
	VMAXPD 96(SI)(AX*8), Y3, Y3
	ADDQ   $16, AX
	CMPQ   AX, BX
	JLE    maxof_blocks

	// Four elements a round up to the last four, taken on their own.
maxof_quads:
	LEAQ -4(CX), BX
	CMPQ AX, BX
	JGE  maxof_last

maxof_quadloop:
	VMAXPD (SI)(AX*8), Y0, Y0
	ADDQ   $4, AX
	CMPQ   AX, BX
	JLT    maxof_quadloop

maxof_last:
	VMAXPD (SI)(BX*8), Y1, Y1

	// Reduce the four vectors to one, then its four lanes to one.
	VMAXPD       Y1, Y0, Y0
	VMAXPD       Y3, Y2, Y2
	VMAXPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VMAXSD       X1, X0, X0
	VZEROUPPER
	VMOVSD       X0, ret+24(FP)
	RET

	// One to three elements, in order.
maxof_short:
	TESTQ  CX, CX
	JEQ    maxof_go
	VMOVSD (SI), X0
	MOVQ   $1, AX
	CMPQ   AX, CX
	JGE    maxof_shortdone

maxof_shortloop:
	VMAXSD (SI)(AX*8), X0, X0
	INCQ   AX
	CMPQ   AX, CX
	JLT    maxof_shortloop

maxof_shortdone:
	VMOVSD X0, ret+24(FP)
	RET

maxof_go:
	JMP ·maxOfGo(SB)

// func extend(rows, sums []float64, vecs *[4][]float64, offsets []int, i int)
TEXT ·extend(SB), NOSPLIT, $0-88
	CMPB  ·hasAVX2(SB), $0
	JEQ   extend_go
	MOVQ  i+80(FP), DX
	TESTQ DX, DX
	JS    extend_go
	MOVQ  offsets_len+64(FP), CX
	DECQ  CX
	JS    extend_go
	MOVQ  CX, AX
	SHLQ  $2, AX
	CMPQ  rows_len+8(FP), AX
	JLT   extend_go

	// R13 is the end any window may reach: len(sums), and each child's
	// length less i. R8-R11 point i floats into the children, so window w
	// of every child is at (Rk)(w*8), as it is in sums.
	MOVQ sums_len+32(FP), R13
	MOVQ vecs+48(FP), AX
	MOVQ 0(AX), R8
	MOVQ 24(AX), R9
	MOVQ 48(AX), R10
	MOVQ 72(AX), R11
	LEAQ (R8)(DX*8), R8
	LEAQ (R9)(DX*8), R9
	LEAQ (R10)(DX*8), R10
	LEAQ (R11)(DX*8), R11
	MOVQ 8(AX), BX
	SUBQ DX, BX
	CMPQ BX, R13
	CMOVQLT BX, R13
	MOVQ 32(AX), BX
	SUBQ DX, BX
	CMPQ BX, R13
	CMOVQLT BX, R13
	MOVQ 56(AX), BX
	SUBQ DX, BX
	CMPQ BX, R13
	CMOVQLT BX, R13
	MOVQ 80(AX), BX
	SUBQ DX, BX
	CMPQ BX, R13
	CMOVQLT BX, R13

	// X8 is the floor, DefaultLogFloor·(i+1) as Go rounds it.
	LEAQ     1(DX), AX
	CVTSQ2SD AX, X8
	MOVQ     $const_DefaultLogFloor, AX
	CVTSQ2SD AX, X9
	MULSD    X9, X8

	// R12 is one row's stride; DI walks row 0, BX the offsets.
	MOVQ  CX, R12
	SHLQ  $3, R12
	MOVQ  rows_base+0(FP), DI
	MOVQ  sums_base+24(FP), SI
	MOVQ  offsets_base+56(FP), BX
	TESTQ CX, CX
	JEQ   extend_done

extend_traj:
	// The windows start at AX up to, not including, DX = end - i.
	MOVQ (BX), AX
	MOVQ 8(BX), DX
	SUBQ i+80(FP), DX
	CMPQ DX, AX
	JLE  extend_floor
	TESTQ AX, AX
	JS   extend_bad
	CMPQ DX, R13
	JGT  extend_bad
	SUBQ $4, DX
	CMPQ AX, DX
	JGT  extend_short

	// Windows AX..AX+3 start every child's running max.
	VMOVUPD (SI)(AX*8), Y4
	VADDPD  (R8)(AX*8), Y4, Y0
	VADDPD  (R9)(AX*8), Y4, Y1
	VADDPD  (R10)(AX*8), Y4, Y2
	VADDPD  (R11)(AX*8), Y4, Y3
	ADDQ    $4, AX
	CMPQ    AX, DX
	JGE     extend_last

	// Four windows a round up to the last four, taken on their own.
extend_quads:
	VMOVUPD (SI)(AX*8), Y4
	VADDPD  (R8)(AX*8), Y4, Y5
	VADDPD  (R9)(AX*8), Y4, Y6
	VADDPD  (R10)(AX*8), Y4, Y7
	VADDPD  (R11)(AX*8), Y4, Y9
	VMAXPD  Y5, Y0, Y0
	VMAXPD  Y6, Y1, Y1
	VMAXPD  Y7, Y2, Y2
	VMAXPD  Y9, Y3, Y3
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     extend_quads

extend_last:
	VMOVUPD (SI)(DX*8), Y4
	VADDPD  (R8)(DX*8), Y4, Y5
	VADDPD  (R9)(DX*8), Y4, Y6
	VADDPD  (R10)(DX*8), Y4, Y7
	VADDPD  (R11)(DX*8), Y4, Y9
	VMAXPD  Y5, Y0, Y0
	VMAXPD  Y6, Y1, Y1
	VMAXPD  Y7, Y2, Y2
	VMAXPD  Y9, Y3, Y3

	// Transpose the running maxima in lane pairs, reducing as it goes:
	// Y6 holds windows 0-1 of children 0-3, Y7 windows 2-3.
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VMAXPD     Y5, Y4, Y4
	VUNPCKLPD  Y3, Y2, Y5
	VUNPCKHPD  Y3, Y2, Y6
	VMAXPD     Y6, Y5, Y5
	VPERM2F128 $0x20, Y5, Y4, Y6
	VPERM2F128 $0x31, Y5, Y4, Y7
	VMAXPD     Y7, Y6, Y6
	VEXTRACTF128 $1, Y6, X7
	VMOVSD     X6, (DI)
	VMOVHPD    X6, (DI)(R12*1)
	LEAQ       (DI)(R12*2), DX
	VMOVSD     X7, (DX)
	VMOVHPD    X7, (DX)(R12*1)
	JMP        extend_next

	// One to three windows, one at a time.
extend_short:
	ADDQ   $4, DX
	VMOVSD (SI)(AX*8), X4
	VADDSD (R8)(AX*8), X4, X0
	VADDSD (R9)(AX*8), X4, X1
	VADDSD (R10)(AX*8), X4, X2
	VADDSD (R11)(AX*8), X4, X3
	INCQ   AX
	CMPQ   AX, DX
	JGE    extend_shortdone

extend_shortloop:
	VMOVSD (SI)(AX*8), X4
	VADDSD (R8)(AX*8), X4, X5
	VADDSD (R9)(AX*8), X4, X6
	VADDSD (R10)(AX*8), X4, X7
	VADDSD (R11)(AX*8), X4, X9
	VMAXSD X5, X0, X0
	VMAXSD X6, X1, X1
	VMAXSD X7, X2, X2
	VMAXSD X9, X3, X3
	INCQ   AX
	CMPQ   AX, DX
	JLT    extend_shortloop

extend_shortdone:
	VMOVSD X0, (DI)
	VMOVSD X1, (DI)(R12*1)
	LEAQ   (DI)(R12*2), DX
	VMOVSD X2, (DX)
	VMOVSD X3, (DX)(R12*1)
	JMP    extend_next

	// No window: every child gets the floor.
extend_floor:
	VMOVSD X8, (DI)
	VMOVSD X8, (DI)(R12*1)
	LEAQ   (DI)(R12*2), DX
	VMOVSD X8, (DX)
	VMOVSD X8, (DX)(R12*1)

extend_next:
	ADDQ $8, BX
	ADDQ $8, DI
	DECQ CX
	JNZ  extend_traj

extend_done:
	VZEROUPPER
	RET

	// A window past the end of sums or a child, or before the start: the
	// Go kernel starts over and panics there.
extend_bad:
	VZEROUPPER

extend_go:
	JMP ·extendGo(SB)

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
