package codec_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"stz/internal/codec"
	_ "stz/internal/core" // registers "stz", so every codec.Names() loop below covers it
	"stz/internal/grid"
)

// randomField fills a grid with a smooth field plus noise so every backend
// compresses it sensibly.
func randomField[T grid.Float](nz, ny, nx int, seed int64) *grid.Grid[T] {
	rng := rand.New(rand.NewSource(seed))
	g := grid.New[T](nz, ny, nx)
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				v := math.Sin(float64(z)*0.31) * math.Cos(float64(y)*0.17) * math.Sin(float64(x)*0.23)
				g.Set(z, y, x, T(v+0.05*rng.Float64()))
			}
		}
	}
	return g
}

// randomBox draws a box fully inside an nz×ny×nx grid.
func randomBox(rng *rand.Rand, nz, ny, nx int) grid.Box {
	z0, y0, x0 := rng.Intn(nz), rng.Intn(ny), rng.Intn(nx)
	return grid.Box{
		Z0: z0, Y0: y0, X0: x0,
		Z1: z0 + 1 + rng.Intn(nz-z0), Y1: y0 + 1 + rng.Intn(ny-y0), X1: x0 + 1 + rng.Intn(nx-x0),
	}
}

func sameWindow[T grid.Float](t *testing.T, label string, got, want *grid.Grid[T]) {
	t.Helper()
	if got.Nz != want.Nz || got.Ny != want.Ny || got.Nx != want.Nx {
		t.Fatalf("%s: dims %dx%dx%d, want %dx%dx%d",
			label, got.Nz, got.Ny, got.Nx, want.Nz, want.Ny, want.Nx)
	}
	for i := range want.Data {
		// Byte-identity, not tolerance: random access must be bit-stable
		// against the full decode.
		if math.Float64bits(float64(got.Data[i])) != math.Float64bits(float64(want.Data[i])) {
			t.Fatalf("%s: value %d = %g, full decode has %g", label, i, got.Data[i], want.Data[i])
		}
	}
}

// TestRandomAccessDifferential is the property-based differential check:
// for random archives across every registry codec and chunk plan,
// DecompressBox(b) must be byte-identical to the corresponding window of a
// full Decode — including the degenerate one-voxel and full-grid boxes.
func TestRandomAccessDifferential(t *testing.T) {
	const nz, ny, nx = 21, 17, 13 // odd dims stress boundary handling
	g := randomField[float32](nz, ny, nx, 41)
	rng := rand.New(rand.NewSource(42))
	for _, name := range codec.Names() {
		for _, chunks := range []int{1, 4} {
			enc, err := codec.Encode(name, g, codec.Config{EB: 1e-3, Chunks: chunks, Workers: 2})
			if err != nil {
				t.Fatalf("%s/chunks=%d: %v", name, chunks, err)
			}
			full, err := codec.Decode[float32](enc, 2)
			if err != nil {
				t.Fatalf("%s/chunks=%d: %v", name, chunks, err)
			}
			r, err := codec.OpenReaderAt[float32](enc)
			if err != nil {
				t.Fatalf("%s/chunks=%d: %v", name, chunks, err)
			}
			r.Workers = 2
			boxes := []grid.Box{
				{Z0: 0, Y0: 0, X0: 0, Z1: nz, Y1: ny, X1: nx}, // full grid
				{Z0: 0, Y0: 0, X0: 0, Z1: 1, Y1: 1, X1: 1},    // corner voxel
				{Z0: nz - 1, Y0: ny - 1, X0: nx - 1, Z1: nz, Y1: ny, X1: nx},
				{Z0: nz / 2, Y0: ny / 2, X0: nx / 2, Z1: nz/2 + 1, Y1: ny/2 + 1, X1: nx/2 + 1},
			}
			for i := 0; i < 12; i++ {
				boxes = append(boxes, randomBox(rng, nz, ny, nx))
			}
			for _, b := range boxes {
				got, err := r.DecompressBox(b)
				if err != nil {
					t.Fatalf("%s/chunks=%d box %+v: %v", name, chunks, b, err)
				}
				sameWindow(t, name, got, full.ExtractBox(b))
			}
		}
	}
}

// TestRandomAccessDifferentialFloat64 repeats the differential property for
// the float64 element type.
func TestRandomAccessDifferentialFloat64(t *testing.T) {
	const nz, ny, nx = 19, 11, 14
	g := randomField[float64](nz, ny, nx, 43)
	rng := rand.New(rand.NewSource(44))
	for _, name := range codec.Names() {
		enc, err := codec.Encode(name, g, codec.Config{EB: 1e-4, Chunks: 3, Workers: 2})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		full, err := codec.Decode[float64](enc, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r, err := codec.OpenReaderAt[float64](enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 8; i++ {
			b := randomBox(rng, nz, ny, nx)
			got, err := r.DecompressBox(b)
			if err != nil {
				t.Fatalf("%s box %+v: %v", name, b, err)
			}
			sameWindow(t, name, got, full.ExtractBox(b))
		}
	}
}

// TestRandomAccessBoxValidation pins the unified box validation: every
// empty, inverted or out-of-bounds request fails with codec.ErrBox, at CheckBox
// and through ReaderAt.
func TestRandomAccessBoxValidation(t *testing.T) {
	const nz, ny, nx = 8, 9, 10
	bad := []grid.Box{
		{},                                               // empty
		{Z0: 2, Z1: 2, Y1: ny, X1: nx},                   // zero planes
		{Z0: 3, Z1: 1, Y1: ny, X1: nx},                   // inverted z
		{Z1: nz, Y0: 5, Y1: 2, X1: nx},                   // inverted y
		{Z1: nz, Y1: ny, X0: 7, X1: 3},                   // inverted x
		{Z0: -1, Z1: nz, Y1: ny, X1: nx},                 // negative origin
		{Z1: nz + 1, Y1: ny, X1: nx},                     // beyond z extent
		{Z1: nz, Y1: ny + 5, X1: nx},                     // beyond y extent
		{Z1: nz, Y1: ny, X1: nx + 1},                     // beyond x extent
		{Z0: nz, Z1: nz + 1, Y1: 1, X1: 1},               // fully outside
		{Z0: -3, Y0: -3, X0: -3, Z1: -1, Y1: -1, X1: -1}, // fully negative
	}
	for _, b := range bad {
		err := codec.CheckBox(b, nz, ny, nx)
		if !errors.Is(err, codec.ErrBox) {
			t.Errorf("codec.CheckBox(%+v) = %v, want codec.ErrBox", b, err)
		}
		var be *codec.BoxError
		if !errors.As(err, &be) {
			t.Errorf("codec.CheckBox(%+v) error is not a *codec.BoxError", b)
		}
	}
	if err := codec.CheckBox(grid.Box{Z1: nz, Y1: ny, X1: nx}, nz, ny, nx); err != nil {
		t.Fatalf("full box rejected: %v", err)
	}
	if err := codec.CheckBox(grid.Box{Z0: 1, Y0: 2, X0: 3, Z1: 2, Y1: 3, X1: 4}, nz, ny, nx); err != nil {
		t.Fatalf("voxel box rejected: %v", err)
	}

	g := randomField[float32](nz, ny, nx, 45)
	enc, err := codec.Encode("sz3", g, codec.Config{EB: 1e-3, Chunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := codec.OpenReaderAt[float32](enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		if _, err := r.DecompressBox(b); !errors.Is(err, codec.ErrBox) {
			t.Errorf("ReaderAt.DecompressBox(%+v) = %v, want codec.ErrBox", b, err)
		}
	}
	// Element-type mismatch is caught at open.
	if _, err := codec.OpenReaderAt[float64](enc); err == nil {
		t.Fatal("f64 reader over f32 archive accepted")
	}
}

// TestRandomAccessReadsSubsetOfPayload asserts the headline I/O property
// via the container's chunk-read accounting: a 16³ box out of a chunked
// 128³ sz3 archive must read well under 25% of the payload bytes.
func TestRandomAccessReadsSubsetOfPayload(t *testing.T) {
	if testing.Short() {
		t.Skip("128³ encode in -short mode")
	}
	g := randomField[float32](128, 128, 128, 46)
	enc, err := codec.Encode("sz3", g, codec.Config{EB: 1e-3, Chunks: 16, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	r, err := codec.OpenReaderAt[float32](enc)
	if err != nil {
		t.Fatal(err)
	}
	r.Workers = 4
	b := grid.Box{Z0: 56, Y0: 40, X0: 24, Z1: 72, Y1: 56, X1: 40}
	got, err := r.DecompressBox(b)
	if err != nil {
		t.Fatal(err)
	}
	read, payload := r.BytesRead(), r.PayloadBytes()
	if read == 0 || payload == 0 {
		t.Fatalf("accounting inactive: read=%d payload=%d", read, payload)
	}
	if frac := float64(read) / float64(payload); frac >= 0.25 {
		t.Fatalf("16³ box read %.1f%% of the payload, want < 25%%", 100*frac)
	}
	full, err := codec.Decode[float32](enc, 4)
	if err != nil {
		t.Fatal(err)
	}
	sameWindow(t, "sz3-128", got, full.ExtractBox(b))
}

// TestRandomAccessCapsMatchBoxDecoder: a codec advertises random access
// exactly when it decodes sub-boxes natively, so the capability matrix
// (stz codecs, /v1/codecs) says what a ReaderAt box query will do.
func TestRandomAccessCapsMatchBoxDecoder(t *testing.T) {
	for _, c := range codec.All() {
		_, native := c.(codec.BoxDecoder)
		if c.Caps().RandomAccess != native {
			t.Errorf("%s: Caps.RandomAccess %v, BoxDecoder %v", c.Name(), c.Caps().RandomAccess, native)
		}
	}
}

// TestBoxRefusesChunkOfOtherDims: a native box decode checks a chunk
// payload's own dims against the chunk's header dims, as the full decode
// does. Chunk 0 of a two-chunk 16×8×8 archive (planes 0–7) is swapped for a
// valid 12×8×8 stream of the same codec: the full decode refuses the
// archive, and every box, in chunk 0 alone or across both, must fail too
// rather than be cut from the wrong grid.
func TestBoxRefusesChunkOfOtherDims(t *testing.T) {
	for _, name := range []string{"sz3", "stz"} {
		t.Run(name, func(t *testing.T) {
			enc, err := codec.Encode(name, randomField[float32](16, 8, 8, 3), codec.Config{EB: 1e-3, Chunks: 2})
			if err != nil {
				t.Fatal(err)
			}
			other, err := codec.Encode(name, randomField[float32](12, 8, 8, 4), codec.Config{EB: 1e-3, Chunks: 1})
			if err != nil {
				t.Fatal(err)
			}
			bad := withSections(t, enc, map[int][]byte{1: section(t, other, 1)})
			if _, err := codec.Decode[float32](bad, 1); !errors.Is(err, codec.ErrFormat) {
				t.Fatalf("full decode: err = %v", err)
			}
			ra, err := codec.OpenReaderAt[float32](bad)
			if err != nil {
				t.Fatal(err)
			}
			if !ra.NativeRandomAccess() {
				t.Fatal("no native box decode")
			}
			for _, b := range []grid.Box{
				{Z1: 1, Y1: 1, X1: 1},
				{Z0: 2, Z1: 6, Y0: 1, Y1: 7, X0: 2, X1: 5},
				{Z0: 4, Z1: 12, Y1: 8, X1: 8},
				{Z1: 16, Y1: 8, X1: 8},
			} {
				if _, err := ra.DecompressBox(b); !errors.Is(err, codec.ErrFormat) {
					t.Errorf("box %+v: err = %v", b, err)
				}
			}
		})
	}
}
