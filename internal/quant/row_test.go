package quant

import (
	"math"
	"math/rand"
	"testing"

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

// FuzzQuantizeRow: the row kernel and the per-point quantiser agree on
// every (value, prediction, bound, radius), for both element types.
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
		// Neighbours of the drawn pair ride along so a row has several points.
		v64 := []float64{v, math.Nextafter(v, p), v + eb, v - eb, p}
		p64 := []float64{p, p, p, math.Nextafter(p, v), v}
		checkRow(t, q, v64, p64, 2)
		v32, p32 := make([]float32, len(v64)), make([]float32, len(v64))
		for i := range v64 {
			v32[i], p32[i] = float32(v64[i]), float32(p64[i])
		}
		checkRow(t, q, v32, p32, 2)
	})
}
