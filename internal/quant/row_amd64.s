#include "go_asm.h"
#include "textflag.h"

// The row kernel is quantizeRow's loop body on eight points: the same IEEE
// operations in the same order on two float64 vectors of four, no FMA (Go's
// amd64 back end never fuses p + bin·k either), ordered-quiet compares so
// that NaN fails every bound test as it fails Go's, and an escape's
// reconstruction taken from the value's own float32 bits. Go's range test
// |s| < radius is made on k = trunc(s) as |k| ≤ radius−1, unsigned: the
// same test, since trunc keeps a value inside (−radius, radius) inside and
// one outside outside, and a NaN or a value past int32 converts to
// 0x80000000, which no |k| ≤ radius−1 passes.

// Four float64 lanes of each mask: the kernel ANDs and ORs with them from
// memory, so they take no register.
DATA absmask<>+0(SB)/8, $0x7fffffffffffffff
DATA absmask<>+8(SB)/8, $0x7fffffffffffffff
DATA absmask<>+16(SB)/8, $0x7fffffffffffffff
DATA absmask<>+24(SB)/8, $0x7fffffffffffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $32
DATA signmask<>+0(SB)/8, $0x8000000000000000
DATA signmask<>+8(SB)/8, $0x8000000000000000
DATA signmask<>+16(SB)/8, $0x8000000000000000
DATA signmask<>+24(SB)/8, $0x8000000000000000
GLOBL signmask<>(SB), RODATA|NOPTR, $32
// halfBelow, the largest float64 below 0.5.
DATA halfbelow<>+0(SB)/8, $0x3fdfffffffffffff
DATA halfbelow<>+8(SB)/8, $0x3fdfffffffffffff
DATA halfbelow<>+16(SB)/8, $0x3fdfffffffffffff
DATA halfbelow<>+24(SB)/8, $0x3fdfffffffffffff
GLOBL halfbelow<>(SB), RODATA|NOPTR, $32
// spread2 sends float k of a YMM's low half to floats 2k and 2k+1, and
// spread2hi float 4+k of its high half.
DATA spread2<>+0(SB)/4, $0
DATA spread2<>+4(SB)/4, $0
DATA spread2<>+8(SB)/4, $1
DATA spread2<>+12(SB)/4, $1
DATA spread2<>+16(SB)/4, $2
DATA spread2<>+20(SB)/4, $2
DATA spread2<>+24(SB)/4, $3
DATA spread2<>+28(SB)/4, $3
GLOBL spread2<>(SB), RODATA|NOPTR, $32
DATA spread2hi<>+0(SB)/4, $4
DATA spread2hi<>+4(SB)/4, $4
DATA spread2hi<>+8(SB)/4, $5
DATA spread2hi<>+12(SB)/4, $5
DATA spread2hi<>+16(SB)/4, $6
DATA spread2hi<>+20(SB)/4, $6
DATA spread2hi<>+24(SB)/4, $7
DATA spread2hi<>+28(SB)/4, $7
GLOBL spread2hi<>(SB), RODATA|NOPTR, $32
// evens selects the even floats of a YMM store: the odd slots of a fine row
// belong to the other parity class.
DATA evens<>+0(SB)/8, $0x00000000ffffffff
DATA evens<>+8(SB)/8, $0x00000000ffffffff
DATA evens<>+16(SB)/8, $0x00000000ffffffff
DATA evens<>+24(SB)/8, $0x00000000ffffffff
GLOBL evens<>(SB), RODATA|NOPTR, $32

// func quantRowAVX2(f *Fast, vals, preds *float32, codes *uint16, recon *float32, groups int) (escapes int)
TEXT ·quantRowAVX2(SB), NOSPLIT, $0-56
	MOVQ f+0(FP), AX
	MOVQ vals+8(FP), SI
	MOVQ preds+16(FP), DI
	MOVQ codes+24(FP), DX
	MOVQ recon+32(FP), R8
	MOVQ groups+40(FP), CX
	MOVQ CX, R9
	SHLQ $3, R9                     // R9 = points; minus the passes below = escapes

	VBROADCASTSD Fast_inv(AX), Y15
	VBROADCASTSD Fast_bin(AX), Y14
	VBROADCASTSD Fast_EB(AX), Y13
	VPBROADCASTD Fast_radius(AX), Y8
	MOVL Fast_radius(AX), BX
	DECL BX
	VMOVD BX, X12
	VPBROADCASTD X12, Y12           // radius − 1

loop:
	// v: the even floats of vals[0:16], as float32 (Y0, points 0–7) and
	// float64 (Y1 points 0–3, Y2 points 4–7); p likewise (Y3, Y4).
	VMOVUPS    (SI), Y0
	VSHUFPS    $0x88, 32(SI), Y0, Y0 // v0 v2 v8 v10 | v4 v6 v12 v14
	VPERMPD    $0xD8, Y0, Y0
	VCVTPS2PD  X0, Y1
	VEXTRACTF128 $1, Y0, X2
	VCVTPS2PD  X2, Y2
	VCVTPS2PD  (DI), Y3
	VCVTPS2PD  16(DI), Y4

	// s = x + copysign(halfBelow, x), x = (v − p)·inv.
	VSUBPD     Y3, Y1, Y5
	VMULPD     Y15, Y5, Y5
	VANDPD     signmask<>(SB), Y5, Y7
	VORPD      halfbelow<>(SB), Y7, Y7
	VADDPD     Y7, Y5, Y5
	VSUBPD     Y4, Y2, Y6
	VMULPD     Y15, Y6, Y6
	VANDPD     signmask<>(SB), Y6, Y7
	VORPD      halfbelow<>(SB), Y7, Y7
	VADDPD     Y7, Y6, Y6

	// k = trunc(s) (Y5, points 0–7); rec = p + bin·k (Y3, Y4).
	VCVTTPD2DQY Y5, X5
	VCVTTPD2DQY Y6, X6
	VCVTDQ2PD  X5, Y7
	VMULPD     Y14, Y7, Y7
	VADDPD     Y7, Y3, Y3
	VCVTDQ2PD  X6, Y7
	VMULPD     Y14, Y7, Y7
	VADDPD     Y7, Y4, Y4
	VINSERTI128 $1, X6, Y5, Y5

	// |rec − v| ≤ eb and, rt = float32(rec), |float64(rt) − v| ≤ eb: the
	// bound masks of points 0–3 (Y6) and 4–7 (Y1), the rt of all eight (Y3).
	VSUBPD     Y1, Y3, Y6
	VANDPD     absmask<>(SB), Y6, Y6
	VCMPPD     $0x12, Y13, Y6, Y6   // LE_OQ
	VCVTPD2PSY Y3, X3
	VCVTPS2PD  X3, Y7
	VSUBPD     Y1, Y7, Y7
	VANDPD     absmask<>(SB), Y7, Y7
	VCMPPD     $0x12, Y13, Y7, Y7   // LE_OQ
	VANDPD     Y7, Y6, Y6
	VSUBPD     Y2, Y4, Y1
	VANDPD     absmask<>(SB), Y1, Y1
	VCMPPD     $0x12, Y13, Y1, Y1   // LE_OQ
	VCVTPD2PSY Y4, X4
	VCVTPS2PD  X4, Y7
	VSUBPD     Y2, Y7, Y7
	VANDPD     absmask<>(SB), Y7, Y7
	VCMPPD     $0x12, Y13, Y7, Y7   // LE_OQ
	VANDPD     Y7, Y1, Y1
	VINSERTF128 $1, X4, Y3, Y3

	// The pass mask as eight dwords (Y6): the bound masks' low halves in
	// point order, and |k| ≤ radius − 1.
	VSHUFPS    $0x88, Y1, Y6, Y6    // p0 p1 p4 p5 | p2 p3 p6 p7
	VPERMPD    $0xD8, Y6, Y6
	VPABSD     Y5, Y7
	VPMINUD    Y12, Y7, Y2
	VPCMPEQD   Y2, Y7, Y7
	VPAND      Y7, Y6, Y6

	// Count the passes.
	VMOVMSKPS  Y6, BX
	POPCNTL    BX, BX
	SUBQ       BX, R9

	// codes = pass ? k + radius : 0, eight words in one store.
	VPADDD     Y8, Y5, Y5
	VPAND      Y6, Y5, Y5
	VEXTRACTI128 $1, Y5, X7
	VPACKUSDW  X7, X5, X5
	VMOVDQU    X5, (DX)

	// recon[0], [2], …, [14] = pass ? rt : v: the odd slots belong to the
	// other parity class and are never written.
	TESTQ      R8, R8
	JZ         next
	VBLENDVPS  Y6, Y3, Y0, Y3
	VMOVDQU    spread2<>(SB), Y1
	VMOVDQU    spread2hi<>(SB), Y2
	VMOVDQU    evens<>(SB), Y4
	VPERMPS    Y3, Y1, Y1
	VPERMPS    Y3, Y2, Y2
	VMASKMOVPS Y1, Y4, (R8)
	VMASKMOVPS Y2, Y4, 32(R8)
	ADDQ       $64, R8

next:
	ADDQ $64, SI
	ADDQ $32, DI
	ADDQ $16, DX
	DECQ CX
	JNZ  loop

	VZEROUPPER
	MOVQ R9, escapes+48(FP)
	RET

// The dequantise kernel is dequantizeRow's loop body on eight points: the
// codes widened and re-centred as int32, then on float64 lanes bin·k rounded
// and added to the widened prediction, rounded once more to float32 — the Go
// loop's operations in its order, no FMA. A group holding a zero code ends
// the call before anything of it is written.

// func dequantRowAVX2(dst *float32, codes *uint16, preds *float32, bin float64, radius int32, groups int) (done int)
TEXT ·dequantRowAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ codes+8(FP), SI
	MOVQ preds+16(FP), DX
	MOVQ groups+40(FP), CX
	XORQ AX, AX

	MOVQ bin+24(FP), R8
	VMOVQ      R8, X15
	VBROADCASTSD X15, Y15
	MOVL radius+32(FP), R8
	VMOVD      R8, X14
	VPBROADCASTD X14, Y14
	VMOVDQU    spread2<>(SB), Y13
	VMOVDQU    evens<>(SB), Y12
	VPXOR      X11, X11, X11

loop:
	// Eight codes; any zero among them ends the call.
	VMOVDQU    (SI), X0
	VPCMPEQW   X11, X0, X1
	VPTEST     X1, X1
	JNZ        done

	// k = int32(code) − radius, as float64: Y1 points 0–3, Y2 points 4–7.
	VPMOVZXWD  X0, Y0
	VPSUBD     Y14, Y0, Y0
	VCVTDQ2PD  X0, Y1
	VEXTRACTI128 $1, Y0, X2
	VCVTDQ2PD  X2, Y2

	// float32(p + bin·k).
	VMULPD     Y15, Y1, Y1
	VMULPD     Y15, Y2, Y2
	VCVTPS2PD  (DX), Y3
	VCVTPS2PD  16(DX), Y4
	VADDPD     Y1, Y3, Y3
	VADDPD     Y2, Y4, Y4
	VCVTPD2PSY Y3, X3
	VCVTPD2PSY Y4, X4

	// dst[0], [2], …, [14]: the odd slots stay as they are.
	VPERMPS    Y3, Y13, Y3
	VPERMPS    Y4, Y13, Y4
	VMASKMOVPS Y3, Y12, (DI)
	VMASKMOVPS Y4, Y12, 32(DI)

	ADDQ $16, SI
	ADDQ $32, DX
	ADDQ $64, DI
	INCQ AX
	CMPQ AX, CX
	JNE  loop

done:
	VZEROUPPER
	MOVQ AX, done+48(FP)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
