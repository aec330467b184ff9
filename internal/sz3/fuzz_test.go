package sz3

import (
	"testing"

	"stz/internal/grid"
)

// FuzzDecompressBox feeds mutated serial streams of every version, and
// chunked ones, plus an arbitrary box to the random-access decoder (its v3
// seeds cut and corrupt the lane directory at every entry, fuzzLaneSeeds;
// its v1 and v2 seeds are reframed v3 streams): it must never panic, never
// return a grid larger than checkElems' bound allows the stream to describe
// (a bit per point), refuse every box checkBox refuses, and — whenever the
// full decode of the same bytes succeeds — serve every valid box with
// exactly the full decode's window.
func FuzzDecompressBox(f *testing.F) {
	smooth, spiky := smoothField[float32](9, 10, 11, 61), sparseSpikeField[float32](9, 10, 11, 62)
	spiky64 := sparseSpikeField[float64](5, 12, 7, 63)
	add := func(enc []byte, err error) {
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc, int16(2), int16(3), int16(1), int16(7), int16(9), int16(10))
		f.Add(enc, int16(0), int16(0), int16(0), int16(5), int16(10), int16(7))
	}
	for _, o := range []Options{{EB: 1e-3}, {EB: 1e-3, Workers: 3}, {EB: 1e-4, Radius: 8}} {
		add(Compress(smooth, o))
		add(Compress(spiky, o))
		add(Compress(spiky64, o))
	}
	// The lane directory of a v3 stream, with escapes and without.
	seed := func(b []byte) { f.Add(b, int16(2), int16(3), int16(1), int16(7), int16(9), int16(10)) }
	for _, g := range []*grid.Grid[float32]{smooth, spiky} {
		enc, err := Compress(g, Options{EB: 1e-3})
		if err != nil {
			f.Fatal(err)
		}
		fuzzLaneSeeds[float32](f, enc, seed)
	}
	enc, err := Compress(spiky64, Options{EB: 1e-3})
	if err != nil {
		f.Fatal(err)
	}
	fuzzLaneSeeds[float64](f, enc, seed)
	// The v1 and v2 framings of the same codes, which earlier writers left.
	for _, g := range []*grid.Grid[float32]{smooth, spiky} {
		enc, err := Compress(g, Options{EB: 1e-3})
		for _, version := range []int{1, 2} {
			add(reframe[float32](f, enc, version), err)
		}
	}
	// Finest lines of three brick pieces and more, with escapes on both
	// sides of every seam between pieces (x ≡ 30…33 mod 32), and a box
	// across two seams.
	seam := smoothField[float32](6, 7, 101, 64)
	for i := range seam.Data {
		if x := i % seam.Nx; (x+2)%32 < 4 {
			seam.Data[i] = 1e12
		}
	}
	enc, err = Compress(seam, Options{EB: 1e-3})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc, int16(1), int16(2), int16(25), int16(5), int16(6), int16(70))
	f.Fuzz(func(t *testing.T, data []byte, z0, y0, x0, z1, y1, x1 int16) {
		b := grid.Box{Z0: int(z0), Y0: int(y0), X0: int(x0), Z1: int(z1), Y1: int(y1), X1: int(x1)}
		if len(data) > 4 && data[4] == 8 {
			fuzzDecompressBox[float64](t, data, b)
		} else {
			fuzzDecompressBox[float32](t, data, b)
		}
	})
}

func fuzzDecompressBox[T grid.Float](t *testing.T, data []byte, b grid.Box) {
	got, err := DecompressBox[T](data, b, 1)
	if err == nil && got.Len() > 8*len(data) {
		t.Fatalf("box decode returned %d points from a %d-byte stream", got.Len(), len(data))
	}
	full, ferr := DecompressWorkers[T](data, 1)
	if ferr != nil {
		return
	}
	if full.Len() > 8*len(data) {
		t.Fatalf("full decode returned %d points from a %d-byte stream", full.Len(), len(data))
	}
	if checkBox(b, full.Nz, full.Ny, full.Nx) != nil {
		if err == nil {
			t.Fatalf("box %+v accepted on a %d×%d×%d grid", b, full.Nz, full.Ny, full.Nx)
		}
		return
	}
	if err != nil {
		t.Fatalf("full decode succeeds but box %+v fails: %v", b, err)
	}
	if !sameBits(got.Data, full.ExtractBox(b).Data) {
		t.Fatalf("box %+v differs from the full decode's window", b)
	}
}
