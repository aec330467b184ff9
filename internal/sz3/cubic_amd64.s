#include "textflag.h"

// The stride-2 cubic row kernel is cubicRowGo's loop body on eight float32
// points: p0+p3, negated, ·1/16; p2+p1, ·9, ·1/16; then the sum of the
// two, each step rounded to float32, no FMA — the operations of
// interp.Cubic in the order, and with the operand order, the Go loop runs
// them. An operand row's eight points of a group are the even floats of
// the sixteen it spans, floats 0–14: a 32-byte load at float 0 and one at
// float 7, whose evens and odds VSHUFPS $0xD8 takes, so no load reaches
// past the group's last point. The shuffle leaves the points in the order
// 0 1 4 5 2 3 6 7 in every row alike; the arithmetic is per point, and one
// VPERMPD $0xD8 puts the result in order. CX is the byte offset of the
// current group in out (twice that in the rows), DX that of the last group,
// which ends on the run's last point: when n is not a multiple of 8 it
// overlaps the group before it and writes its shared points again, with
// the same bits.

DATA nine<>+0(SB)/4, $9.0
GLOBL nine<>(SB), RODATA|NOPTR, $4
DATA sixteenth<>+0(SB)/4, $0.0625
GLOBL sixteenth<>(SB), RODATA|NOPTR, $4
DATA sign<>+0(SB)/4, $0x80000000
GLOBL sign<>(SB), RODATA|NOPTR, $4

// EVENS loads the eight points of the row at R into Y, in the shuffled
// order.
#define EVENS(R, Y) VMOVUPS (R)(CX*2), Y; VSHUFPS $0xD8, 28(R)(CX*2), Y, Y

// func cubicRow2AVX2(p0, p1, p2, p3, out *float32, n int)
TEXT ·cubicRow2AVX2(SB), NOSPLIT, $0-48
	MOVQ p0+0(FP), SI
	MOVQ p1+8(FP), BX
	MOVQ p2+16(FP), R8
	MOVQ p3+24(FP), R9
	MOVQ out+32(FP), DI
	MOVQ n+40(FP), DX
	LEAQ -32(DX*4), DX
	XORQ CX, CX
	VBROADCASTSS nine<>(SB), Y13
	VBROADCASTSS sixteenth<>(SB), Y14
	VBROADCASTSS sign<>(SB), Y15

loop:
	EVENS(SI, Y0)
	EVENS(R9, Y1)
	VADDPS Y1, Y0, Y0
	VXORPS Y15, Y0, Y0
	VMULPS Y14, Y0, Y0
	EVENS(BX, Y1)
	EVENS(R8, Y2)
	VADDPS Y1, Y2, Y1
	VMULPS Y13, Y1, Y1
	VMULPS Y14, Y1, Y1
	VADDPS Y1, Y0, Y0
	VPERMPD $0xD8, Y0, Y0
	VMOVUPS Y0, (DI)(CX*1)
	CMPQ CX, DX
	JGE  done
	ADDQ $32, CX
	CMPQ CX, DX
	JLE  loop
	MOVQ DX, CX
	JMP  loop

done:
	VZEROUPPER
	RET
