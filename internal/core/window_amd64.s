//go:build amd64 && !race

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
