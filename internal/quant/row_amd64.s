#include "go_asm.h"
#include "textflag.h"

// The row kernel is quantizeRow's loop body on four float64 lanes: the same
// IEEE operations in the same order, no FMA (Go's amd64 back end never fuses
// p + bin·k either), ordered-quiet compares so that NaN fails every test as
// it fails Go's, and an escape's reconstruction taken from the value's own
// float32 bits.

DATA absmask<>+0(SB)/8, $0x7fffffffffffffff
GLOBL absmask<>(SB), RODATA|NOPTR, $8
DATA signmask<>+0(SB)/8, $0x8000000000000000
GLOBL signmask<>(SB), RODATA|NOPTR, $8
// halfBelow, the largest float64 below 0.5.
DATA halfbelow<>+0(SB)/8, $0x3fdfffffffffffff
GLOBL halfbelow<>(SB), RODATA|NOPTR, $8

// func quantRowAVX2(f *Fast, vals, preds *float32, codes *uint16, recon *float32, groups int) (escapes int)
TEXT ·quantRowAVX2(SB), NOSPLIT, $0-56
	MOVQ f+0(FP), AX
	MOVQ vals+8(FP), SI
	MOVQ preds+16(FP), DI
	MOVQ codes+24(FP), DX
	MOVQ recon+32(FP), R8
	MOVQ groups+40(FP), CX
	MOVQ CX, R9
	SHLQ $2, R9                     // R9 = points; minus the passes below = escapes

	VBROADCASTSD Fast_inv(AX), Y15
	VBROADCASTSD Fast_bin(AX), Y14
	VBROADCASTSD Fast_EB(AX), Y13
	VBROADCASTSD Fast_lim(AX), Y12
	VPBROADCASTD Fast_radius(AX), X8
	VBROADCASTSD absmask<>(SB), Y11
	VBROADCASTSD signmask<>(SB), Y10
	VBROADCASTSD halfbelow<>(SB), Y9

loop:
	// v: the even floats of vals[0:8], as float32 (X0) and float64 (Y1).
	VMOVUPS    (SI), X0
	VSHUFPS    $0x88, 16(SI), X0, X0
	VCVTPS2PD  X0, Y1
	VCVTPS2PD  (DI), Y2             // p

	// s = x + copysign(halfBelow, x), x = (v − p)·inv; pass while |s| < lim.
	VSUBPD     Y2, Y1, Y3
	VMULPD     Y15, Y3, Y3
	VANDPD     Y10, Y3, Y4
	VORPD      Y9, Y4, Y4
	VADDPD     Y4, Y3, Y3
	VANDPD     Y11, Y3, Y4
	VCMPPD     $0x11, Y12, Y4, Y4   // LT_OQ

	// k = trunc(s); rec = p + bin·k.
	VCVTTPD2DQY Y3, X5
	VCVTDQ2PD  X5, Y6
	VMULPD     Y14, Y6, Y6
	VADDPD     Y6, Y2, Y6

	// |rec − v| ≤ eb.
	VSUBPD     Y1, Y6, Y7
	VANDPD     Y11, Y7, Y7
	VCMPPD     $0x12, Y13, Y7, Y7   // LE_OQ
	VANDPD     Y7, Y4, Y4

	// rt = float32(rec); |float64(rt) − v| ≤ eb.
	VCVTPD2PSY Y6, X6
	VCVTPS2PD  X6, Y7
	VSUBPD     Y1, Y7, Y7
	VANDPD     Y11, Y7, Y7
	VCMPPD     $0x12, Y13, Y7, Y7   // LE_OQ
	VANDPD     Y7, Y4, Y4

	// Count the passes.
	VMOVMSKPD  Y4, BX
	POPCNTL    BX, BX
	SUBQ       BX, R9

	// The pass mask as four dwords (X7); codes = pass ? k + radius : 0.
	VEXTRACTF128 $1, Y4, X7
	VSHUFPS    $0x88, X7, X4, X7
	VPADDD     X8, X5, X5
	VPAND      X7, X5, X5
	VPACKUSDW  X5, X5, X5
	VMOVQ      X5, (DX)

	// recon[0], [2], [4], [6] = pass ? rt : v, one scalar store each: the
	// odd slots belong to the other parity class.
	TESTQ      R8, R8
	JZ         next
	VBLENDVPS  X7, X6, X0, X6
	VMOVSS     X6, (R8)
	VEXTRACTPS $1, X6, 8(R8)
	VEXTRACTPS $2, X6, 16(R8)
	VEXTRACTPS $3, X6, 24(R8)
	ADDQ       $32, R8

next:
	ADDQ $32, SI
	ADDQ $16, DI
	ADDQ $8, DX
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

// spread2 sends float k of a YMM's low half to floats 2k and 2k+1.
DATA spread2<>+0(SB)/4, $0
DATA spread2<>+4(SB)/4, $0
DATA spread2<>+8(SB)/4, $1
DATA spread2<>+12(SB)/4, $1
DATA spread2<>+16(SB)/4, $2
DATA spread2<>+20(SB)/4, $2
DATA spread2<>+24(SB)/4, $3
DATA spread2<>+28(SB)/4, $3
GLOBL spread2<>(SB), RODATA|NOPTR, $32
// evens selects the even floats of a YMM store: the odd slots of a fine row
// belong to the other parity class.
DATA evens<>+0(SB)/8, $0x00000000ffffffff
DATA evens<>+8(SB)/8, $0x00000000ffffffff
DATA evens<>+16(SB)/8, $0x00000000ffffffff
DATA evens<>+24(SB)/8, $0x00000000ffffffff
GLOBL evens<>(SB), RODATA|NOPTR, $32

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
