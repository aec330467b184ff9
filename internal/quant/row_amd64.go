package quant

// hasRowKernel records, once, whether this CPU and OS run the AVX2 row
// kernel: AVX2 and POPCNT in CPUID, and YMM state saved by the OS (OSXSAVE,
// and XGETBV's XMM and YMM bits).
var hasRowKernel = detectRowKernel()

func detectRowKernel() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const popcnt, osxsave, avx = 1 << 23, 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(popcnt|osxsave|avx) != popcnt|osxsave|avx {
		return false
	}
	if xgetbv()&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// quantizeRow2x32 runs the AVX2 kernel over the longest prefix of a
// stride-2 float32 row it can take whole: groups of four points whose
// 8-float value load and, with a recon row, whose last store lie inside the
// slices. It returns the points done (0 without the kernel) and their
// escapes.
func quantizeRow2x32(f *Fast, vals, preds []float32, codes []uint16, recon []float32) (n, escapes int) {
	// A radius past DefaultRadius would saturate in the kernel's code pack
	// where the Go conversion wraps; the encoders refuse one anyway.
	if !hasRowKernel || f.radius > DefaultRadius {
		return 0, 0
	}
	g := min(len(preds)/4, len(vals)/8)
	if recon != nil {
		g = min(g, (len(recon)+1)/8)
	}
	if g == 0 {
		return 0, 0
	}
	n = 4 * g
	// Every operand is cut to exactly the span the kernel touches, so a
	// wrong length panics here, never in the kernel.
	var rp *float32
	if recon != nil {
		rp = &recon[:8*g-1][0]
	}
	return n, quantRowAVX2(f, &vals[:8*g][0], &preds[:n][0], &codes[:n][0], rp, g)
}

// quantRowAVX2 quantises groups·4 points: values vals[0], vals[2], …,
// predictions preds[0:4·groups], codes[0:4·groups], and, when recon is not
// nil, reconstructions recon[0], recon[2], …. It returns the escapes.
//
//go:noescape
func quantRowAVX2(f *Fast, vals, preds *float32, codes *uint16, recon *float32, groups int) (escapes int)

// dequantizeRow2x32 runs the AVX2 kernel over the longest prefix of a
// stride-2 float32 row it can take whole: the groups of eight points before
// the first group that holds an escape, whose last store lies inside dst.
// It returns the points done (0 without the kernel).
func dequantizeRow2x32(dst []float32, codes []uint16, preds []float32, bin float64, radius int32) int {
	if !hasRowKernel {
		return 0
	}
	g := min(len(codes)/8, (len(dst)+1)/16)
	if g == 0 {
		return 0
	}
	// Every operand is cut to exactly the span the kernel touches, so a
	// wrong length panics here, never in the kernel.
	n := 8 * g
	return 8 * dequantRowAVX2(&dst[:16*g-1][0], &codes[:n][0], &preds[:n][0], bin, radius, g)
}

// dequantRowAVX2 dequantises up to groups·8 points — codes[0:8·groups]
// against preds[0:8·groups] into dst[0], dst[2], … — and stops before the
// first group that holds a zero code. It returns the groups done.
//
//go:noescape
func dequantRowAVX2(dst *float32, codes *uint16, preds *float32, bin float64, radius int32, groups int) (done int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
