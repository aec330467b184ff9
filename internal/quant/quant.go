// Package quant implements SZ3-style error-bounded linear-scale
// quantization — the loss-introduction stage of the SZ3 baseline and of the
// STZ core.
//
// A residual diff = value − prediction is mapped to an integer bin
// q = round(diff / (2·eb)); the reconstruction prediction + 2·eb·q is then
// guaranteed to be within eb of the value. Bins outside ±(Radius−1) — or
// bins whose reconstruction fails the bound check after rounding to the
// storage type — are escaped as "unpredictable": code 0 is emitted and the
// original value is stored verbatim in a side channel.
//
// Every product is rounded before it is added (float64(bin*k), never
// bin*k + p): the Go spec lets a compiler fuse x*y + z into one FMA unless
// an explicit conversion rounds the product, the arm64, ppc64le, s390x and
// riscv64 back ends do fuse, and an encoder and a decoder must round alike.
// The amd64 kernels follow the Go loops operation for operation, no FMA.
package quant

import (
	"math"
	"unsafe"

	"stz/internal/grid"
)

// DefaultRadius matches SZ3's default of 32768 quantization bins on each
// side of zero (alphabet 65536 including the escape code).
const DefaultRadius = 32768

// Quantizer maps residuals to codes under an absolute error bound.
type Quantizer struct {
	EB     float64 // absolute error bound (> 0)
	Radius int32   // codes occupy [1, 2·Radius−1]; 0 escapes
}

// New returns a quantizer with the default radius.
func New(eb float64) Quantizer {
	return Quantizer{EB: eb, Radius: DefaultRadius}
}

// Alphabet returns the code alphabet size (2·Radius).
func (q Quantizer) Alphabet() int { return int(q.Radius) * 2 }

// Quantize maps (value, prediction) to a code and the reconstructed value.
// ok is false when the residual cannot be captured within the bound, in
// which case the caller must store value verbatim (code 0).
func (q Quantizer) Quantize(value, pred float64) (code uint16, recon float64, ok bool) {
	diff := value - pred
	r := math.Round(diff / (2 * q.EB))
	// The bin, not the scaled residual, must lie inside ±(Radius−1): a
	// residual within half a bin of ±Radius rounds onto the escape code (or
	// past the alphabet). The negated comparison also catches NaN.
	if !(r < float64(q.Radius) && r > -float64(q.Radius)) {
		return 0, value, false
	}
	k := int32(r)
	recon = pred + float64(2*q.EB*float64(k))
	if math.Abs(recon-value) > q.EB {
		return 0, value, false
	}
	return uint16(k + q.Radius), recon, true
}

// Dequantize reconstructs the value for a non-escape code.
func (q Quantizer) Dequantize(code uint16, pred float64) float64 {
	return pred + float64(2*q.EB*float64(int32(code)-q.Radius))
}

// QuantizeT quantizes in the storage type T's domain: the reconstruction is
// rounded to T before the bound check, so the guarantee survives the final
// cast (important for float32 data processed with float64 arithmetic).
func QuantizeT[T grid.Float](q Quantizer, value T, pred float64) (code uint16, recon T, ok bool) {
	c, r, ok := q.Quantize(float64(value), pred)
	if !ok {
		return 0, value, false
	}
	rt := T(r)
	if math.Abs(float64(rt)-float64(value)) > q.EB {
		return 0, value, false
	}
	return c, rt, true
}

// DequantizeT mirrors QuantizeT for decompression.
func DequantizeT[T grid.Float](q Quantizer, code uint16, pred float64) T {
	return T(q.Dequantize(code, pred))
}

// Fast is a Quantizer with the per-point division replaced by a
// precomputed reciprocal — the hot-loop form used by the compressors.
// It produces identical codes and reconstructions apart from the usual
// one-ulp reciprocal rounding, which the bound re-check absorbs.
// The row kernel loads every field it broadcasts straight from here, so a
// short row pays no per-call set-up.
type Fast struct {
	EB     float64
	inv    float64 // 1/(2·EB)
	bin    float64 // 2·EB
	lim    float64 // float64(radius)
	radius int32
}

// Fast derives the hot-loop form.
func (q Quantizer) Fast() Fast {
	return Fast{EB: q.EB, inv: 1 / (2 * q.EB), bin: 2 * q.EB, lim: float64(q.Radius), radius: q.Radius}
}

// Quantize mirrors Quantizer.Quantize.
func (f Fast) Quantize(value, pred float64) (code uint16, recon float64, ok bool) {
	r := math.Round((value - pred) * f.inv)
	if !(r < float64(f.radius) && r > -float64(f.radius)) {
		return 0, value, false
	}
	k := int32(r)
	recon = pred + float64(2*f.EB*float64(k))
	if d := recon - value; d > f.EB || d < -f.EB || d != d {
		return 0, value, false
	}
	return uint16(k + f.radius), recon, true
}

// QuantizeFastT is the storage-type-safe form of Fast.Quantize (see
// QuantizeT).
func QuantizeFastT[T grid.Float](f Fast, value T, pred float64) (code uint16, recon T, ok bool) {
	c, r, ok := f.Quantize(float64(value), pred)
	if !ok {
		return 0, value, false
	}
	rt := T(r)
	if d := float64(rt) - float64(value); d > f.EB || d < -f.EB || d != d {
		return 0, value, false
	}
	return c, rt, true
}

// halfBelow is the largest float64 below 0.5. Truncating x ± halfBelow
// (the sign of x) is math.Round(x) — nearest, ties away from zero — for
// every |x| < 2^51 without a call: the sum reaches the next integer exactly
// when x's fraction is at least 0.5 (a tie's sum lands within half a
// spacing of the integer and rounds onto it), whereas adding 0.5 itself
// would also carry 0.5 − ulp up to 1.
const halfBelow = 0.49999999999999994

// QuantizeRow is QuantizeFastT over one row of points with no call per
// point: element t is the value vals[t·stride] against the prediction
// preds[t] (the points of a parity class sit stride apart in their fine
// row). It writes codes[t] — 0 for an escape — and, when recon is non-nil,
// the reconstruction (the value itself for an escape) to recon[t·stride];
// a nil recon is for a level whose reconstruction nothing consumes. It
// returns the number of escapes, whose values the caller gathers from the
// zero codes.
//
// Float32 rows at stride 2 — every row of core's level sweep and of sz3's
// finest interpolation level — go eight points at a time through
// quantizeRow2x32, which is an assembly kernel where the CPU has one and
// computes bit for bit what quantizeRow does; the rest of such a row (its
// last 1 to 7 points, or 8 where its values end on its last point), and
// every other row, runs quantizeRow.
func QuantizeRow[T grid.Float](f Fast, vals []T, stride int, preds []T, codes []uint16, recon []T) (escapes int) {
	codes = codes[:len(preds)]
	if stride == 2 && unsafe.Sizeof(T(0)) == 4 {
		var n int
		n, escapes = quantizeRow2x32(&f, asFloat32(vals), asFloat32(preds), codes, asFloat32(recon))
		if n == len(preds) {
			return escapes
		}
		vals, preds, codes = vals[2*n:], preds[n:], codes[n:]
		if recon != nil {
			recon = recon[2*n:]
		}
	}
	return escapes + quantizeRow(f, vals, stride, preds, codes, recon)
}

// asFloat32 views a 4-byte T slice as the []float32 it is.
func asFloat32[T grid.Float](s []T) []float32 {
	return unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// quantizeRow is QuantizeRow in Go, one point at a time: the reference the
// kernel is held to, and the loop for every row the kernel does not take.
func quantizeRow[T grid.Float](f Fast, vals []T, stride int, preds []T, codes []uint16, recon []T) (escapes int) {
	eb, neb, inv, bin := f.EB, -f.EB, f.inv, f.bin
	lim, nlim := f.lim, -f.lim
	codes = codes[:len(preds)]
	i := 0
	for t, pt := range preds {
		v, p := float64(vals[i]), float64(pt)
		x := float64((v - p) * inv)
		// The bin is trunc(s); NaN fails both comparisons.
		s := x + math.Copysign(halfBelow, x)
		if s < lim && s > nlim {
			k := int32(s)
			rec := p + float64(bin*float64(k))
			rt := T(rec)
			if d, dt := rec-v, float64(rt)-v; d <= eb && d >= neb && dt <= eb && dt >= neb {
				codes[t] = uint16(k + f.radius)
				if recon != nil {
					recon[i] = rt
				}
				i += stride
				continue
			}
		}
		codes[t] = 0
		escapes++
		if recon != nil {
			recon[i] = vals[i]
		}
		i += stride
	}
	return escapes
}

// DequantizeRow is QuantizeRow's inverse up to the row's first escape: it
// writes dst[t·stride] = T(float64(preds[t]) + bin·(int32(codes[t])−radius))
// for every t before the first zero code and returns how many it wrote —
// len(codes) when the row holds no escape. The caller places the escape's
// value and calls again past it.
//
// Float32 rows of at least eight points at stride 2 go eight points at a
// time through dequantizeRow2x32, an assembly kernel where the CPU has one
// that computes bit for bit what dequantizeRow does and writes only the
// row's own slots; the rest of such a row, and every other row, runs
// dequantizeRow.
func DequantizeRow[T grid.Float](dst []T, stride int, codes []uint16, preds []T, bin float64, radius int32) (n int) {
	preds = preds[:len(codes)]
	if stride == 2 && unsafe.Sizeof(T(0)) == 4 && len(codes) >= 8 {
		n = dequantizeRow2x32(asFloat32(dst), codes, asFloat32(preds), bin, radius)
		if n == len(codes) {
			return n
		}
		dst, codes, preds = dst[2*n:], codes[n:], preds[n:]
	}
	return n + dequantizeRow(dst, stride, codes, preds, bin, radius)
}

// dequantizeRow is DequantizeRow in Go, one point at a time: the reference
// the kernel is held to, and the loop for every row the kernel does not
// take.
func dequantizeRow[T grid.Float](dst []T, stride int, codes []uint16, preds []T, bin float64, radius int32) int {
	preds = preds[:len(codes)]
	i := 0
	for t, code := range codes {
		if code == 0 {
			return t
		}
		dst[i] = T(float64(preds[t]) + float64(bin*float64(int32(code)-radius)))
		i += stride
	}
	return len(codes)
}

// HasAVX2 reports whether this CPU and OS run the package's AVX2 kernels.
// It is the one CPU probe of the repository: core's cubic row kernel asks
// it too.
func HasAVX2() bool { return hasRowKernel }

// AbsoluteBound converts a value-range-relative bound to an absolute one:
// eb_abs = rel · (max − min). A degenerate (constant) range falls back to
// rel itself so the bound stays positive.
func AbsoluteBound(rel float64, min, max float64) float64 {
	r := max - min
	if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return rel
	}
	return rel * r
}
