//go:build amd64 && !race

#include "textflag.h"

// logProducts, the cell build's kernel: four positions a step, each lane a
// port of Go's amd64 math.Log (archLog in $GOROOT/src/math/log_amd64.s),
// instruction for instruction. archLog splits x into f1 and k with bit
// masks, converts k exactly, makes one compare, and then uses only MULSD,
// ADDSD, SUBSD and one DIVSD, with no FMA. Each is an IEEE-754 operation
// that rounds alike in every lane, and an add or a multiply is the same
// float with its operands swapped, so the lanes below return archLog's
// bits as long as they keep its order. k is converted as
// (2^52 + e) − (2^52 + 0x3FE), exact as archLog's CVTSL2SD of e − 0x3FE.
//
// archLog leaves its ordinary path for ±0 (−Inf), negatives (NaN), and
// +Inf and NaN (x itself). Here every lane takes the ordinary path,
// subnormals included as in archLog, and the special lanes then get what
// clampLog makes of archLog's answer: the floor where x is not > 0, which
// takes in 0, −0, negatives and NaN, and +Inf where x is +Inf. The clamp
// is a compare and a blend, so a NaN log fails it as in clampLog. A quad
// whose four products are all 0 is stored as four floors without a log.
//
// The kernel jumps to logProductsGo when hasAVX2 is false or when px or
// py is shorter than dst, so a bad call panics there.

#define REP4(off, bits) DATA logc<>+(off)(SB)/8, $bits; DATA logc<>+(off+8)(SB)/8, $bits; DATA logc<>+(off+16)(SB)/8, $bits; DATA logc<>+(off+24)(SB)/8, $bits

REP4(0, 0xc085e00000000000)   // DefaultLogFloor, −700
REP4(32, 0x3ff0000000000000)  // 1
REP4(64, 0x3fe6a09e667f3bcd)  // √2/2
REP4(96, 0x3fe0000000000000)  // 0.5, also f1's exponent bits
REP4(128, 0x000fffffffffffff) // the mantissa
REP4(160, 0x4330000000000000) // 2^52
REP4(192, 0x43300000000003fe) // 2^52 + 0x3FE
REP4(224, 0x4000000000000000) // 2
REP4(256, 0x3fe5555555555593) // L1
REP4(288, 0x3fd999999997fa04) // L2
REP4(320, 0x3fd2492494229359) // L3
REP4(352, 0x3fcc71c51d8e78af) // L4
REP4(384, 0x3fc7466496cb03de) // L5
REP4(416, 0x3fc39a09d078c69f) // L6
REP4(448, 0x3fc2f112df3e5244) // L7
REP4(480, 0x3dea39ef35793c76) // Ln2Lo
REP4(512, 0x3fe62e42fee00000) // Ln2Hi
REP4(544, 0x7ff0000000000000) // +Inf
DATA logc<>+576(SB)/8, $0     // lane indices, for the tail's mask
DATA logc<>+584(SB)/8, $1
DATA logc<>+592(SB)/8, $2
DATA logc<>+600(SB)/8, $3
GLOBL logc<>(SB), RODATA|NOPTR, $608

#define FLOOR logc<>+0(SB)
#define ONE logc<>+32(SB)
#define HSQRT2 logc<>+64(SB)
#define HALF logc<>+96(SB)
#define MANT logc<>+128(SB)
#define TWO52 logc<>+160(SB)
#define KBIAS logc<>+192(SB)
#define TWO logc<>+224(SB)
#define L1 logc<>+256(SB)
#define L2 logc<>+288(SB)
#define L3 logc<>+320(SB)
#define L4 logc<>+352(SB)
#define L5 logc<>+384(SB)
#define L6 logc<>+416(SB)
#define L7 logc<>+448(SB)
#define LN2LO logc<>+480(SB)
#define LN2HI logc<>+512(SB)
#define POSINF logc<>+544(SB)
#define LANES logc<>+576(SB)

// func logProducts(dst, px, py []float64)
TEXT ·logProducts(SB), NOSPLIT, $0-72
	CMPB ·hasAVX2(SB), $0
	JEQ  logprod_go
	MOVQ dst_len+8(FP), CX
	CMPQ px_len+32(FP), CX
	JLT  logprod_go
	CMPQ py_len+56(FP), CX
	JLT  logprod_go
	MOVQ dst_base+0(FP), DI
	MOVQ px_base+24(FP), SI
	MOVQ py_base+48(FP), DX
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-4, BX

	VMOVUPD FLOOR, Y15
	VMOVUPD ONE, Y14
	VMOVUPD HSQRT2, Y13
	VMOVUPD HALF, Y12
	VMOVUPD MANT, Y11
	VMOVUPD TWO52, Y10
	VMOVUPD KBIAS, Y8
	VXORPD  Y9, Y9, Y9

logprod_quads:
	CMPQ      AX, BX
	JGE       logprod_tail
	VMOVUPD   (SI)(AX*8), Y0
	VMULPD    (DX)(AX*8), Y0, Y0
	VCMPPD    $0, Y9, Y0, Y3 // x == 0, −0 included
	VMOVMSKPD Y3, R8
	CMPQ      R8, $15
	JNE       logprod_log
	VMOVUPD   Y15, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       logprod_quads

	// The last one to three positions, through a mask: a masked-off lane
	// loads 0 and is not stored.
logprod_tail:
	MOVQ         CX, R8
	SUBQ         AX, R8
	JEQ          logprod_done
	VMOVQ        R8, X7
	VPBROADCASTQ X7, Y7
	VPCMPGTQ     LANES, Y7, Y7 // lane i: i < positions left
	VMASKMOVPD   (SI)(AX*8), Y7, Y0
	VMASKMOVPD   (DX)(AX*8), Y7, Y6
	VMULPD       Y6, Y0, Y0

	// Y1 := clampLog(x) lane by lane, x in Y0, in archLog's order.
logprod_log:
	// f1, ki := math.Frexp(x); k := float64(ki)
	VANDPD Y11, Y0, Y2
	VORPD  Y12, Y2, Y2 // f1
	VPSRLQ $52, Y0, Y1 // e (a negative x's sign lands above it; that lane gets the floor)
	VPOR   Y10, Y1, Y1 // 2^52 + e
	VSUBPD Y8, Y1, Y1  // k

	// if f1 <= math.Sqrt2/2 { k -= 1; f1 *= 2 }: archLog's CMPSD $5 (not
	// less than) of √2/2 and f1
	VCMPPD $5, Y2, Y13, Y3
	VANDPD Y14, Y3, Y3     // 0 or 1
	VSUBPD Y3, Y1, Y1      // k
	VADDPD Y14, Y3, Y3     // 1 or 2
	VMULPD Y3, Y2, Y2      // f1
	VSUBPD Y14, Y2, Y2     // f := f1 - 1

	// s := f / (2 + f); s2 := s * s; s4 := s2 * s2
	VADDPD TWO, Y2, Y4
	VDIVPD Y4, Y2, Y3  // s
	VMULPD Y3, Y3, Y4  // s2
	VMULPD Y4, Y4, Y5  // s4

	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD L7, Y5, Y6
	VADDPD L5, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD L3, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD L1, Y6, Y6
	VMULPD Y6, Y4, Y4 // t1

	// t2 := s4 * (L2 + s4*(L4+s4*L6)); R := t1 + t2
	VMULPD L6, Y5, Y6
	VADDPD L4, Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD L2, Y6, Y6
	VMULPD Y6, Y5, Y5 // t2
	VADDPD Y5, Y4, Y4 // R

	// hfsq := 0.5 * f * f
	VMULPD Y12, Y2, Y6
	VMULPD Y2, Y6, Y6 // hfsq

	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD Y6, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD LN2LO, Y1, Y4
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y6, Y6
	VSUBPD Y2, Y6, Y6
	VMULPD LN2HI, Y1, Y1
	VSUBPD Y6, Y1, Y1    // log x on archLog's ordinary path

	// The clamp, the floor where x is not > 0, and +Inf where x is +Inf.
	VCMPPD    $0x1d, Y15, Y1, Y3 // log x >= floor, ordered
	VCMPPD    $0x1e, Y9, Y0, Y4  // x > 0, ordered
	VANDPD    Y4, Y3, Y3
	VBLENDVPD Y3, Y1, Y15, Y1
	VCMPPD    $0, POSINF, Y0, Y4
	VBLENDVPD Y4, Y0, Y1, Y1

	CMPQ    AX, BX
	JGE     logprod_tailstore
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     logprod_quads

logprod_tailstore:
	VMASKMOVPD Y1, Y7, (DI)(AX*8)

logprod_done:
	VZEROUPPER
	RET

logprod_go:
	JMP ·logProductsGo(SB)
