package core

import (
	"math/rand"
	"testing"

	"stz/internal/grid"
)

func TestDecompressBoxesMatchesFull(t *testing.T) {
	g := testField[float32](40, 36, 44, 31)
	enc, err := Compress(g, DefaultConfig(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader[float32](enc)
	if err != nil {
		t.Fatal(err)
	}
	full, err := r.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	var boxes []grid.Box
	for i := 0; i < 12; i++ {
		z0, y0, x0 := rng.Intn(36), rng.Intn(32), rng.Intn(40)
		// Boxes must be fully in bounds (validation is strict); clip the
		// random extents to the grid.
		boxes = append(boxes, grid.Box{
			Z0: z0, Y0: y0, X0: x0,
			Z1: z0 + 1 + rng.Intn(8), Y1: y0 + 1 + rng.Intn(8), X1: x0 + 1 + rng.Intn(8),
		}.Clip(40, 36, 44))
	}
	outs, st, err := r.DecompressBoxes(boxes)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(boxes) {
		t.Fatalf("got %d outputs", len(outs))
	}
	for i, b := range boxes {
		want := full.ExtractBox(b.Clip(40, 36, 44))
		got := outs[i]
		if got.Len() != want.Len() {
			t.Fatalf("box %d size mismatch", i)
		}
		for j := range want.Data {
			if got.Data[j] != want.Data[j] {
				t.Fatalf("box %d differs from full at %d", i, j)
			}
		}
	}
	// Each class stream must be decoded at most once per level.
	if st.DecodedClasses[1] > 7 {
		t.Fatalf("level-3 classes decoded %d times", st.DecodedClasses[1])
	}
}

func TestDecompressBoxesSharedParitySkips(t *testing.T) {
	// Two even-z slices as boxes: only the 3 in-plane level-3 classes are
	// needed, decoded once.
	g := testField[float64](32, 32, 32, 32)
	enc, _ := Compress(g, DefaultConfig(1e-3))
	r, _ := NewReader[float64](enc)
	boxes := []grid.Box{
		{Z0: 4, Z1: 5, Y0: 0, Y1: 32, X0: 0, X1: 32},
		{Z0: 10, Z1: 11, Y0: 0, Y1: 32, X0: 0, X1: 32},
	}
	outs, st, err := r.DecompressBoxes(boxes)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("outputs %d", len(outs))
	}
	if st.DecodedClasses[1] != 3 {
		t.Fatalf("decoded %d level-3 classes, want 3", st.DecodedClasses[1])
	}
	if st.SkippedClasses[1] != 4 {
		t.Fatalf("skipped %d level-3 classes, want 4", st.SkippedClasses[1])
	}
}

func TestDecompressBoxesErrors(t *testing.T) {
	g := testField[float64](8, 8, 8, 33)
	enc, _ := Compress(g, DefaultConfig(1e-3))
	r, _ := NewReader[float64](enc)
	if _, _, err := r.DecompressBoxes(nil); err == nil {
		t.Fatal("empty request accepted")
	}
	if _, _, err := r.DecompressBoxes([]grid.Box{{Z0: 9, Z1: 10, Y1: 1, X1: 1}}); err == nil {
		t.Fatal("out-of-range box accepted")
	}
}
