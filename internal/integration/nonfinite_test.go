package integration_test

import (
	"math"
	"math/rand"
	"testing"

	"stz/internal/codec"
	"stz/internal/core"
	"stz/internal/datasets"
	"stz/internal/grid"
)

// TestNonFiniteInputs pins what every registry codec does with values no
// quantizer can code: NaN, ±Inf, denormals and 1e30 spikes salted into a
// 33×31×38 Nyx field. The bound holds on every finite point — the spikes
// included — and a non-finite value comes back bit for bit. These are also
// the escape-heavy code streams (code 0 next to a cluster 32 768 symbols
// away) that the entropy stage sees least.
func TestNonFiniteInputs(t *testing.T) {
	g := datasets.Nyx(33, 31, 38, 5)
	mn, mx := g.Range()
	eb := 1e-3 * float64(mx-mn)
	rng := rand.New(rand.NewSource(9))
	salt := []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1), math.Float32frombits(0x807fffff), // the smallest and the largest-magnitude negative denormal
		1e30, -1e30,
	}
	for i := 0; i < 20*len(salt); i++ {
		g.Data[rng.Intn(g.Len())] = salt[i%len(salt)]
	}
	// Some at the corners and next to each other, where the predictors'
	// stencils and the level-1 lattice meet them.
	g.Data[0], g.Data[1], g.Data[g.Len()-1] = salt[0], salt[1], salt[5]

	check := func(t *testing.T, what string, got *grid.Grid[float32], box grid.Box) {
		t.Helper()
		want := g.ExtractBox(box)
		if got.Nz != want.Nz || got.Ny != want.Ny || got.Nx != want.Nx {
			t.Fatalf("%s: dims %dx%dx%d, want %dx%dx%d", what, got.Nz, got.Ny, got.Nx, want.Nz, want.Ny, want.Nx)
		}
		for i, w := range want.Data {
			v := got.Data[i]
			if math.IsNaN(float64(w)) || math.IsInf(float64(w), 0) {
				if math.Float32bits(v) != math.Float32bits(w) {
					t.Fatalf("%s: point %d: non-finite %v came back as %v", what, i, w, v)
				}
			} else if d := math.Abs(float64(v) - float64(w)); !(d <= eb) {
				t.Fatalf("%s: point %d: |%g - %g| = %g exceeds the bound %g", what, i, v, w, d, eb)
			}
		}
	}
	whole := grid.FullBox(g)

	for _, c := range codec.All() {
		t.Run(c.Name(), func(t *testing.T) {
			enc, err := codec.Encode(c.Name(), g, codec.Config{EB: eb})
			if err != nil {
				t.Fatal(err)
			}
			dec, err := codec.Decode[float32](enc, 2)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "decode", dec, whole)
			r, err := codec.OpenReaderAt[float32](enc)
			if err != nil {
				t.Fatal(err)
			}
			r.Workers = 2
			for _, box := range []grid.Box{{Z1: 9, Y1: 9, X1: 9}, {Z0: 7, Y0: 5, X0: 11, Z1: 30, Y1: 31, X1: 38}} {
				sub, err := r.DecompressBox(box)
				if err != nil {
					t.Fatal(err)
				}
				check(t, "box decode", sub, box)
			}
			if _, ok := c.(codec.LevelDecoder); ok {
				finest, err := codec.DecodeLevel[float32](enc, core.DefaultConfig(eb).Levels, 2)
				if err != nil {
					t.Fatal(err)
				}
				check(t, "progressive, finest level", finest, whole)
			}
		})
	}
}
