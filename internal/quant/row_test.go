package quant

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"stz/internal/grid"
)

// checkRow quantises vals against preds through QuantizeRow — with and
// without a reconstruction row, at the given stride — and through one
// QuantizeFastT call per point, and requires identical codes, bit-identical
// reconstructions and the matching escape count.
func checkRow[T grid.Float](t testing.TB, q Quantizer, vals, preds []T, stride int) {
	t.Helper()
	f := q.Fast()
	n := len(preds)
	strided := make([]T, n*stride)
	for i, v := range vals {
		strided[i*stride] = v
	}
	codes, bare := make([]uint16, n), make([]uint16, n)
	recon := make([]T, n*stride)
	esc := QuantizeRow(f, strided, stride, preds, codes, recon)
	if got := QuantizeRow(f, strided, stride, preds, bare, nil); got != esc {
		t.Fatalf("escapes %d with a recon row, %d without", esc, got)
	}
	bits := func(v T) uint64 { return math.Float64bits(float64(v)) }
	want := 0
	for i := range preds {
		code, rec, ok := QuantizeFastT(f, vals[i], float64(preds[i]))
		if !ok {
			want++
			if code != 0 || bits(rec) != bits(vals[i]) {
				t.Fatalf("point %d: QuantizeFastT escape returned code %d recon %g", i, code, rec)
			}
		} else if code == 0 || int(code) >= q.Alphabet() {
			t.Fatalf("point %d (val %g pred %g): code %d outside [1, %d)", i, vals[i], preds[i], code, q.Alphabet())
		}
		if codes[i] != code || bare[i] != code {
			t.Fatalf("point %d (val %g pred %g): row code %d / %d, point code %d", i, vals[i], preds[i], codes[i], bare[i], code)
		}
		if bits(recon[i*stride]) != bits(rec) {
			t.Fatalf("point %d (val %g pred %g): row recon %g, point recon %g", i, vals[i], preds[i], recon[i*stride], rec)
		}
	}
	if esc != want {
		t.Fatalf("row reports %d escapes, the points %d", esc, want)
	}
	checkKernel(t, f, strided, stride, preds)
	if n > 0 { // slices that end on the row's last point
		checkKernel(t, f, strided[:(n-1)*stride+1], stride, preds)
	}
}

// checkKernel requires QuantizeRow, which takes stride-2 float32 rows
// through the row kernel where the CPU has one, to match the reference loop
// quantizeRow bit for bit — codes, every bit of the recon row (the slots
// between the row's points included) and the escape count — with and without
// a recon row of vals's length.
func checkKernel[T grid.Float](t testing.TB, f Fast, vals []T, stride int, preds []T) {
	t.Helper()
	for _, withRecon := range []bool{true, false} {
		codes, refCodes := make([]uint16, len(preds)), make([]uint16, len(preds))
		var recon, refRecon []T
		if withRecon {
			recon, refRecon = make([]T, len(vals)), make([]T, len(vals))
			for i := range recon {
				recon[i], refRecon[i] = -7.25, -7.25
			}
		}
		esc := QuantizeRow(f, vals, stride, preds, codes, recon)
		ref := quantizeRow(f, vals, stride, preds, refCodes, refRecon)
		if esc != ref {
			t.Fatalf("%d points, recon %v: %d escapes, reference %d", len(preds), withRecon, esc, ref)
		}
		for i := range codes {
			if codes[i] != refCodes[i] {
				t.Fatalf("%d points: point %d (val %g pred %g) code %d, reference %d", len(preds), i, vals[i*stride], preds[i], codes[i], refCodes[i])
			}
		}
		for i := range recon {
			if rawBits(recon[i]) != rawBits(refRecon[i]) {
				t.Fatalf("%d points: recon[%d] bits %#x, reference %#x", len(preds), i, rawBits(recon[i]), rawBits(refRecon[i]))
			}
		}
	}
}

// rawBits is v's storage bits, NaN payload and quiet bit as stored.
func rawBits[T grid.Float](v T) uint64 {
	if unsafe.Sizeof(v) == 4 {
		return uint64(math.Float32bits(float32(v)))
	}
	return math.Float64bits(float64(v))
}

// edgeRow builds (value, prediction) pairs whose scaled residual
// (value − 0)/(2·eb) lands on every rounding and range edge of the
// quantiser.
func edgeRow[T grid.Float](q Quantizer) (vals, preds []T) {
	bin := 2 * q.EB
	r := float64(q.Radius)
	below := math.Nextafter(0.5, 0)
	scaled := []float64{
		0, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 1000.5, -1000.5, // ties round away from zero
		below, -below, 1 + below, // 0.5 − ulp rounds toward zero
		r, -r, r - 0.5, -(r - 0.5), r - 1, -(r - 1), r - 1 + below, r + 7, // the radius edge
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, s := range scaled {
		vals = append(vals, T(s*bin))
		preds = append(preds, 0)
	}
	// Non-finite and huge predictions.
	for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat32} {
		vals = append(vals, 1)
		preds = append(preds, T(p))
	}
	// NaN values with payloads, one signalling: an escape keeps their bits.
	for _, b := range []uint32{0x7fa00001, 0xffc12345} {
		vals = append(vals, T(math.Float32frombits(b)))
		preds = append(preds, 0)
	}
	return vals, preds
}

func TestQuantizeRowEdges(t *testing.T) {
	for _, q := range []Quantizer{{EB: 0.25, Radius: 4}, {EB: 0.5, Radius: DefaultRadius}, {EB: 1e-3, Radius: 512}} {
		v32, p32 := edgeRow[float32](q)
		checkRow(t, q, v32, p32, 1)
		checkRow(t, q, v32, p32, 2)
		v64, p64 := edgeRow[float64](q)
		checkRow(t, q, v64, p64, 1)
		checkRow(t, q, v64, p64, 2)
	}
	// A bin within half a bin of ±Radius would be the escape code (or past
	// the alphabet): it must escape, not wrap.
	q := Quantizer{EB: 0.5, Radius: DefaultRadius}
	for _, s := range []float64{DefaultRadius - 0.5, -(DefaultRadius - 0.5)} {
		if code, _, ok := QuantizeFastT(q.Fast(), s, 0); ok || code != 0 {
			t.Errorf("scaled %g: code %d ok %v, want an escape", s, code, ok)
		}
		if _, _, ok := q.Quantize(s, 0); ok {
			t.Errorf("scaled %g: Quantizer.Quantize did not escape", s)
		}
	}
}

// TestQuantizeRowCastFailure: a reconstruction that meets the bound in
// float64 and misses it once rounded to float32 must escape in the row
// kernel exactly as in QuantizeFastT.
func TestQuantizeRowCastFailure(t *testing.T) {
	// The bound sits between half of float32's spacing in [1, 2) (1.2e-7) and
	// the spacing itself: a reconstruction more than half a spacing off the
	// value rounds to the value's neighbour, a whole spacing away.
	q := Quantizer{EB: 1e-7, Radius: DefaultRadius}
	f := q.Fast()
	rng := rand.New(rand.NewSource(3))
	var vals, preds []float32
	castFails := 0
	for i := 0; i < 4000; i++ {
		v := float32(1 + rng.Float64())
		p := float32(float64(v) + (rng.Float64()-0.5)*2e-6)
		if _, _, ok := f.Quantize(float64(v), float64(p)); ok {
			if _, _, okT := QuantizeFastT(f, v, float64(p)); !okT {
				castFails++
			}
		}
		vals, preds = append(vals, v), append(preds, p)
	}
	if castFails == 0 {
		t.Fatal("no pair passes in float64 and fails after the float32 cast; the table does not cover the case")
	}
	checkRow(t, q, vals, preds, 2)
}

func TestQuantizeRowRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, q := range []Quantizer{New(1e-3), {EB: 1e-2, Radius: 16}} {
		n := 5000
		v32, p32 := make([]float32, n), make([]float32, n)
		v64, p64 := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			v := rng.NormFloat64()
			p := v + rng.NormFloat64()*q.EB*20
			if i%4 == 0 { // exact multiples of half a bin: ties
				p = v + float64(rng.Intn(41)-20)*q.EB
			}
			v32[i], p32[i], v64[i], p64[i] = float32(v), float32(p), v, p
		}
		checkRow(t, q, v32, p32, 2)
		checkRow(t, q, v64, p64, 2)
	}
}

// TestQuantizeRowLengths: every row length from 0 to 70 — whole kernel
// groups, a tail of one to three points, rows too short for one group —
// with passes, ties, radius escapes and NaNs in each.
func TestQuantizeRowLengths(t *testing.T) {
	q := Quantizer{EB: 1e-3, Radius: 512}
	rng := rand.New(rand.NewSource(17))
	for n := 0; n <= 70; n++ {
		v32, p32 := make([]float32, n), make([]float32, n)
		v64, p64 := make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			v := rng.NormFloat64()
			p := v + rng.NormFloat64()*q.EB*800 // about a fifth past the radius
			switch rng.Intn(8) {
			case 0: // a tie
				p = v + float64(rng.Intn(41)-20)*q.EB
			case 1:
				v = math.NaN()
			}
			v32[i], p32[i], v64[i], p64[i] = float32(v), float32(p), v, p
		}
		checkRow(t, q, v32, p32, 2)
		checkRow(t, q, v32, p32, 1)
		checkRow(t, q, v64, p64, 2)
	}
}

// TestRowKernelTakesRows: where the CPU runs the kernel, it takes a whole
// 64-point stride-2 float32 row (a 128³ sweep row) as eight groups of eight
// points, with or without a recon row, and all but the last group of a row
// whose values end on its last point.
func TestRowKernelTakesRows(t *testing.T) {
	if !hasRowKernel {
		t.Skip("no row kernel on this CPU: QuantizeRow is the reference loop")
	}
	f := New(1e-3).Fast()
	vals, preds := make([]float32, 128), make([]float32, 64)
	codes, recon := make([]uint16, 64), make([]float32, 128)
	for _, c := range []struct {
		vals, recon []float32
		want        int
	}{
		{vals, recon, 64},
		{vals, nil, 64},
		{vals, recon[:127], 64},
		{vals[:127], recon, 56},
		{vals[:127], recon[:127], 56},
	} {
		if n, _ := quantizeRow2x32(&f, c.vals, preds, codes, c.recon); n != c.want {
			t.Errorf("vals %d, recon %d: the kernel took %d points, want %d", len(c.vals), len(c.recon), n, c.want)
		}
	}
	// A group is eight points: a 63-point row is seven groups and a tail.
	if n, _ := quantizeRow2x32(&f, vals, preds[:63], codes, recon); n != 56 {
		t.Errorf("63 points: the kernel took %d, want 56", n)
	}
}

// TestHalfBelowRounding: truncating x ± halfBelow is math.Round(x) at and
// one ulp either side of every half-integer and integer a code can come
// from, and on random values in between.
func TestHalfBelowRounding(t *testing.T) {
	check := func(x float64) {
		t.Helper()
		if got, want := int32(x+math.Copysign(halfBelow, x)), int32(math.Round(x)); got != want {
			t.Fatalf("trunc(%v ± halfBelow) = %d, math.Round = %d", x, got, want)
		}
	}
	if halfBelow != math.Nextafter(0.5, 0) {
		t.Fatalf("halfBelow = %v", halfBelow)
	}
	for n := -DefaultRadius; n <= DefaultRadius; n++ {
		for _, x := range []float64{float64(n), float64(n) + 0.5} {
			check(x)
			check(math.Nextafter(x, math.Inf(1)))
			check(math.Nextafter(x, math.Inf(-1)))
		}
	}
	check(math.Copysign(0, -1))
	check(math.SmallestNonzeroFloat64)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200000; i++ {
		check((rng.Float64() - 0.5) * 70000)
	}
}

// FuzzQuantizeRow: the row quantiser, the reference loop and the per-point
// quantiser agree on every (value, prediction, bound, radius), for both
// element types.
func FuzzQuantizeRow(f *testing.F) {
	f.Add(1.0, 0.75, 0.25, uint16(4))
	f.Add(3.5, 0.0, 0.5, uint16(32768))
	f.Add(-32767.5, 0.0, 0.5, uint16(32768))
	f.Add(math.NaN(), 1.0, 1e-3, uint16(512))
	f.Add(1.0, math.Inf(-1), 1e-3, uint16(512))
	f.Add(1.0000001, 1.0, 1e-9, uint16(32768))
	f.Fuzz(func(t *testing.T, v, p, eb float64, radius uint16) {
		if !(eb > 0) || math.IsInf(eb, 0) {
			return
		}
		q := Quantizer{EB: eb, Radius: int32(radius%DefaultRadius) + 1}
		// Neighbours of the drawn pair ride along so a row has two kernel
		// groups and a tail: ties at half a bin and a bin and a half, the
		// radius edge and half a bin inside it, one ulp past a tie, the pair
		// swapped or negated, and no residual at all.
		edge := 2 * eb * float64(q.Radius)
		v64 := []float64{v, math.Nextafter(v, p), v + eb, v - eb, p, p + eb, p - eb, p + edge, p - edge,
			p + 3*eb, p - 3*eb, p + edge - eb, p - edge + eb,
			math.Nextafter(p+eb, math.Inf(1)), math.Nextafter(p-eb, math.Inf(-1)), -v, v}
		p64 := []float64{p, p, p, math.Nextafter(p, v), v, p, p, p, p,
			p, p, p, p,
			p, p, -p, v}
		checkRow(t, q, v64, p64, 2)
		v32, p32 := make([]float32, len(v64)), make([]float32, len(v64))
		for i := range v64 {
			v32[i], p32[i] = float32(v64[i]), float32(p64[i])
		}
		checkRow(t, q, v32, p32, 2)
	})
}

// dequantRowCase builds one row for DequantizeRow: n codes, about one in
// zeroEvery of them an escape (none for 0), and predictions drawn from the
// values that round or propagate oddly — NaN, ±Inf, −0, subnormals, the
// float32 extremes — among ordinary ones.
func dequantRowCase[T grid.Float](rng *rand.Rand, n, zeroEvery int) (codes []uint16, preds []T) {
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		float64(math.SmallestNonzeroFloat32), -3 * float64(math.SmallestNonzeroFloat32),
		math.MaxFloat32, -math.MaxFloat32, 1.1754942e-38}
	codes, preds = make([]uint16, n), make([]T, n)
	for t := range codes {
		codes[t] = uint16(1 + rng.Intn(65535))
		if zeroEvery > 0 && rng.Intn(zeroEvery) == 0 {
			codes[t] = 0
		}
		if rng.Intn(4) == 0 {
			preds[t] = T(odd[rng.Intn(len(odd))])
		} else {
			preds[t] = T(rng.NormFloat64())
		}
	}
	return codes, preds
}

// checkDequantRow requires DequantizeRow, which takes stride-2 float32 rows
// through the kernel where the CPU has one, to match the reference loop
// dequantizeRow bit for bit: the count it returns, and every slot of dst —
// the row's own, the ones between them it must leave alone, and the ones
// past the row. It runs once on a dst that ends on the row's last point and
// once on one that runs on past it, as a sweep's fine row does.
func checkDequantRow[T grid.Float](t *testing.T, stride int, codes []uint16, preds []T, bin float64, radius int32) {
	t.Helper()
	n := len(codes)
	for _, slack := range []int{0, 17} {
		size := slack
		if n > 0 {
			size += (n-1)*stride + 1
		}
		dst, ref := make([]T, size), make([]T, size)
		for i := range dst {
			dst[i], ref[i] = -7.25, -7.25
		}
		got := DequantizeRow(dst, stride, codes, preds, bin, radius)
		want := dequantizeRow(ref, stride, codes, preds, bin, radius)
		if got != want {
			t.Fatalf("%d points, stride %d, dst %d: wrote %d points, reference %d", n, stride, size, got, want)
		}
		for i := range dst {
			if rawBits(dst[i]) != rawBits(ref[i]) {
				t.Fatalf("%d points, stride %d, dst %d: dst[%d] bits %#x, reference %#x", n, stride, size, i, rawBits(dst[i]), rawBits(ref[i]))
			}
		}
	}
}

// TestDequantizeRowStopsAtEscape: the reference loop writes every point
// before the first zero code with the formula, and nothing from it on.
func TestDequantizeRowStopsAtEscape(t *testing.T) {
	codes := []uint16{5, 1, 65535, 0, 7}
	preds := []float32{1, -2, 0.5, 3, 4}
	dst := make([]float32, 9)
	for i := range dst {
		dst[i] = -1
	}
	const bin, radius = 0.25, 4
	if n := dequantizeRow(dst, 2, codes, preds, bin, radius); n != 3 {
		t.Fatalf("wrote %d points, want 3", n)
	}
	want := []float32{1 + 0.25, -1, -2 - 0.75, -1, 0.5 + 0.25*65531, -1, -1, -1, -1}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst %v, want %v", dst, want)
		}
	}
}

// TestDequantRowKernelTakesRows: where the CPU runs the kernel, it takes a
// whole 64-point row, a row whose dst ends on its last point, and the
// groups before the first one holding an escape.
func TestDequantRowKernelTakesRows(t *testing.T) {
	if !hasRowKernel {
		t.Skip("no row kernel on this CPU: DequantizeRow is the reference loop")
	}
	codes, preds, dst := make([]uint16, 64), make([]float32, 64), make([]float32, 128)
	for i := range codes {
		codes[i] = DefaultRadius
	}
	for _, c := range []struct {
		dst        []float32
		zero, want int
	}{
		{dst, -1, 64},
		{dst[:127], -1, 64},
		{dst[:126], -1, 56},
		{dst, 0, 0},
		{dst, 7, 0},
		{dst, 8, 8},
		{dst, 63, 56},
	} {
		if c.zero >= 0 {
			codes[c.zero] = 0
		}
		if n := dequantizeRow2x32(c.dst, codes, preds, 2e-3, DefaultRadius); n != c.want {
			t.Errorf("dst %d, zero code at %d: the kernel took %d points, want %d", len(c.dst), c.zero, n, c.want)
		}
		if c.zero >= 0 {
			codes[c.zero] = DefaultRadius
		}
	}
}

// FuzzDequantizeRow: DequantizeRow, AVX2 kernel included, against the
// reference loop bit for bit, on rows of every length from 0 to 70 at
// strides 1 to 3, for both element types, with escapes at random points and
// NaN, ±Inf, −0 and subnormal predictions.
func FuzzDequantizeRow(f *testing.F) {
	f.Add(int64(1), 2e-3, uint16(32768), uint8(0))
	f.Add(int64(2), 0.5, uint16(4), uint8(9))
	f.Add(int64(3), 1e-30, uint16(32768), uint8(3))
	f.Add(int64(4), 3e38, uint16(1), uint8(40))
	f.Add(int64(5), 1e-300, uint16(512), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, bin float64, radius uint16, zeroEvery uint8) {
		if !(bin > 0) || math.IsInf(bin, 0) {
			return
		}
		r := int32(radius%DefaultRadius) + 1
		rng := rand.New(rand.NewSource(seed))
		for n := 0; n <= 70; n++ {
			for stride := 1; stride <= 3; stride++ {
				c32, p32 := dequantRowCase[float32](rng, n, int(zeroEvery))
				checkDequantRow(t, stride, c32, p32, bin, r)
				c64, p64 := dequantRowCase[float64](rng, n, int(zeroEvery))
				checkDequantRow(t, stride, c64, p64, bin, r)
			}
		}
	})
}
