#include "go_asm.h"
#include "textflag.h"

// The cubic row kernel is cubicRowGo's loop body on eight float32 points:
// the same additions in the same order, then ·9, ·scale and the difference,
// each rounded to float32, no FMA. One loop per shape (rows per column sum ×
// columns); the second column is the first one point on for the inner rows
// and three points on for the outer rows, an immediate displacement of 4
// and 12 bytes. CX is the byte offset of the current group in every row, DX
// that of the last group, which ends on the row's last point: when n is not
// a multiple of 8 it overlaps the group before it and writes its shared
// points again, with the same bits.

DATA nine<>+0(SB)/4, $9.0
GLOBL nine<>(SB), RODATA|NOPTR, $4

// SUM2 and SUM4 add one column of 2 or 4 stencil rows, left to right, at
// displacement D into Y.
#define SUM2(D, A, B, Y) VMOVUPS D(A)(CX*1), Y; VADDPS D(B)(CX*1), Y, Y
#define SUM4(D, A, B, C, E, Y) SUM2(D, A, B, Y); VADDPS D(C)(CX*1), Y, Y; VADDPS D(E)(CX*1), Y, Y

// STORE writes Y0·9·scale − Y1·scale; NEXT steps to the next group, or to
// the last one where fewer than eight points are left, and ends after the
// last.
#define STORE VMULPS Y14, Y0, Y0; VMULPS Y15, Y0, Y0; VMULPS Y15, Y1, Y1; VSUBPS Y1, Y0, Y0; VMOVUPS Y0, (DI)(CX*1)
#define NEXT(L) CMPQ CX, DX; JGE done; ADDQ $32, CX; CMPQ CX, DX; JLE L; MOVQ DX, CX; JMP L

// func cubicRowAVX2(s *cubicShape, out *float32, n int)
TEXT ·cubicRowAVX2(SB), NOSPLIT, $0-24
	MOVQ s+0(FP), AX
	MOVQ out+8(FP), DI
	MOVQ n+16(FP), DX
	LEAQ -32(DX*4), DX
	XORQ CX, CX
	VBROADCASTSS nine<>(SB), Y14
	VBROADCASTSS cubicShape_scale(AX), Y15
	MOVQ cubicShape_in+0(AX), SI
	MOVQ cubicShape_in+8(AX), BX
	MOVQ cubicShape_in+16(AX), R8
	MOVQ cubicShape_in+24(AX), R9
	MOVQ cubicShape_out+0(AX), R10
	MOVQ cubicShape_out+8(AX), R11
	MOVQ cubicShape_out+16(AX), R12
	MOVQ cubicShape_out+24(AX), R13
	CMPQ cubicShape_cols(AX), $2
	JEQ  twocols
	CMPQ cubicShape_chain(AX), $4
	JEQ  chain4

chain2: // one axis
	SUM2(0, SI, BX, Y0)
	SUM2(0, R10, R11, Y1)
	STORE
	NEXT(chain2)

chain4: // two axes
	SUM4(0, SI, BX, R8, R9, Y0)
	SUM4(0, R10, R11, R12, R13, Y1)
	STORE
	NEXT(chain4)

twocols:
	CMPQ cubicShape_chain(AX), $4
	JEQ  cols4

cols2: // two axes, x one of them
	SUM2(0, SI, BX, Y0)
	SUM2(4, SI, BX, Y2)
	VADDPS Y2, Y0, Y0
	SUM2(0, R10, R11, Y1)
	SUM2(12, R10, R11, Y3)
	VADDPS Y3, Y1, Y1
	STORE
	NEXT(cols2)

cols4: // three axes
	SUM4(0, SI, BX, R8, R9, Y0)
	SUM4(4, SI, BX, R8, R9, Y2)
	VADDPS Y2, Y0, Y0
	SUM4(0, R10, R11, R12, R13, Y1)
	SUM4(12, R10, R11, R12, R13, Y3)
	VADDPS Y3, Y1, Y1
	STORE
	NEXT(cols4)

done:
	VZEROUPPER
	RET
