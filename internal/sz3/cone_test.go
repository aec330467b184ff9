package sz3

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"stz/internal/grid"
	"stz/internal/huffman"
)

// sparseSpikeField is a smooth field with a 1e12 spike every 97th point:
// its escapes fall inside and outside almost every box.
func sparseSpikeField[T grid.Float](nz, ny, nx int, seed int64) *grid.Grid[T] {
	g := smoothField[T](nz, ny, nx, seed)
	for i := 0; i < g.Len(); i += 97 {
		g.Data[i] = T(1e12)
	}
	return g
}

// coneBoxes returns the boxes the cone tests decode on an nz×ny×nx grid: the
// whole grid, single points, boxes hugging each corner, single planes along
// every axis, and random ones.
func coneBoxes(rng *rand.Rand, nz, ny, nx, random int) []grid.Box {
	span := func(n int) (int, int) {
		lo := rng.Intn(n)
		return lo, lo + 1 + rng.Intn(n-lo)
	}
	z, y, x := rng.Intn(nz), rng.Intn(ny), rng.Intn(nx)
	boxes := []grid.Box{
		{Z1: nz, Y1: ny, X1: nx},
		{Z0: z, Y0: y, X0: x, Z1: z + 1, Y1: y + 1, X1: x + 1},
		{Z1: 1, Y1: 1, X1: 1},
		{Z0: nz - 1, Y0: ny - 1, X0: nx - 1, Z1: nz, Y1: ny, X1: nx},
		{Z1: (nz + 1) / 2, Y1: (ny + 1) / 2, X1: (nx + 1) / 2},
		{Z0: nz / 2, Y0: ny / 2, X0: nx / 2, Z1: nz, Y1: ny, X1: nx},
		{Z0: z, Z1: z + 1, Y1: ny, X1: nx},
		{Z1: nz, Y0: y, Y1: y + 1, X1: nx},
		{Z1: nz, Y1: ny, X0: x, X1: x + 1},
	}
	for i := 0; i < random; i++ {
		var b grid.Box
		b.Z0, b.Z1 = span(nz)
		b.Y0, b.Y1 = span(ny)
		b.X0, b.X1 = span(nx)
		boxes = append(boxes, b)
	}
	return boxes
}

// decodeConePoisoned runs the decoder for box b into a grid pre-filled with
// NaN, so a point the decode never wrote stays NaN and a prediction that
// read one turns NaN.
func decodeConePoisoned[T grid.Float](enc []byte, nz, ny, nx int, b grid.Box) (*grid.Grid[T], error) {
	rec := grid.New[T](nz, ny, nx)
	for i := range rec.Data {
		rec.Data[i] = T(math.NaN())
	}
	sd, err := openSerial[T](enc, b, 1)
	if err != nil {
		return rec, err
	}
	defer sd.release()
	return rec, sd.reconstruct(rec)
}

// written counts the points of a poisoned grid a decode wrote.
func written[T grid.Float](rec *grid.Grid[T]) int {
	n := 0
	for _, v := range rec.Data {
		if v == v {
			n++
		}
	}
	return n
}

func testBoxConePoisoned[T grid.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for _, dims := range traversalDims {
		nz, ny, nx := dims[0], dims[1], dims[2]
		// Escapes inside and outside the boxes at both radii; none at all
		// (no outlier cursor to keep) on the smooth field.
		for _, tc := range []struct {
			g *grid.Grid[T]
			o Options
		}{
			{sparseSpikeField[T](nz, ny, nx, 52), Options{EB: 1e-3}},
			{sparseSpikeField[T](nz, ny, nx, 52), Options{EB: 1e-4, Radius: 8}},
			{smoothField[T](nz, ny, nx, 52), Options{EB: 1e-3}},
		} {
			g, o := tc.g, tc.o
			enc, err := Compress(g, o)
			if err != nil {
				t.Fatal(err)
			}
			full, err := Decompress[T](enc)
			if err != nil {
				t.Fatal(err)
			}
			for i, b := range coneBoxes(rng, nz, ny, nx, 12) {
				rec, err := decodeConePoisoned[T](enc, nz, ny, nx, b)
				if err != nil {
					t.Fatalf("%v box %+v: %v", dims, b, err)
				}
				// The window holds no NaN (the field has none) and matches the
				// full decode bit for bit.
				if !sameBits(rec.ExtractBox(b).Data, full.ExtractBox(b).Data) {
					t.Fatalf("%v radius=%d box %+v: window differs from the full decode's", dims, o.Radius, b)
				}
				if i == 0 && written(rec) != g.Len() {
					t.Fatalf("%v: whole-grid box wrote %d of %d points", dims, written(rec), g.Len())
				}
			}
		}
	}
}

// TestBoxConePoisoned: a box decode reconstructs its dependency cone and
// nothing else needs to be there — over a NaN-poisoned grid every window is
// bit-identical to the full decode's, the whole-grid box writes every point,
// and a 32×32 window of the 8×128×128 service slab writes at most a tenth of
// it (the timing-free measure of the mechanism).
func TestBoxConePoisoned(t *testing.T) {
	t.Run("f32", testBoxConePoisoned[float32])
	t.Run("f64", testBoxConePoisoned[float64])
	t.Run("cone-size", func(t *testing.T) {
		g := sparseSpikeField[float32](8, 128, 128, 53)
		enc, err := Compress(g, Options{EB: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range [][2]int{{0, 0}, {48, 48}, {96, 96}, {17, 83}} {
			b := grid.Box{Z1: 8, Y0: at[0], Y1: at[0] + 32, X0: at[1], X1: at[1] + 32}
			rec, err := decodeConePoisoned[float32](enc, 8, 128, 128, b)
			if err != nil {
				t.Fatal(err)
			}
			if n := written(rec); n < b.Volume() || n > g.Len()/10 {
				t.Errorf("window at y=%d x=%d: %d of %d points written (window %d, ceiling 10%%)",
					at[0], at[1], n, g.Len(), b.Volume())
			}
		}
	})
}

// TestConeTraversal: forEachLine over a cone visits exactly the points of
// the full traversal that lie in their pass's need-box, in the same order,
// as lines of the same pass and axis geometry.
func TestConeTraversal(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	type point struct{ pass, idx, c int }
	for _, dims := range traversalDims {
		nz, ny, nx := dims[0], dims[1], dims[2]
		for _, b := range coneBoxes(rng, nz, ny, nx, 8) {
			var needs [maxPasses]grid.Box
			passNeeds(nz, ny, nx, b, &needs)
			var want, got []point
			forEachLine(nz, ny, nx, nil, func(ln line) {
				for t := 0; t < ln.n; t++ {
					if needs[ln.pass].Contains(ln.z, ln.y, ln.x0+t*ln.stride) {
						want = append(want, point{ln.pass, ln.idx + t*ln.stride, ln.c + t*ln.dc})
					}
				}
			})
			forEachLine(nz, ny, nx, &needs, func(ln line) {
				if ln.n <= 0 || ln.idx != (ln.z*ny+ln.y)*nx+ln.x0 {
					t.Fatalf("%v box %+v: line of %d points at %d is not (%d,%d,%d)", dims, b, ln.n, ln.idx, ln.z, ln.y, ln.x0)
				}
				for t := 0; t < ln.n; t++ {
					got = append(got, point{ln.pass, ln.idx + t*ln.stride, ln.c + t*ln.dc})
				}
			})
			if len(got) != len(want) {
				t.Fatalf("%v box %+v: cone traversal visits %d points, the clipped full one %d", dims, b, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v box %+v: cone point %d is %+v, the clipped full traversal's %+v", dims, b, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBoxConeShortOutlierSection: a stream whose outlier section is one
// value short (header count and bytes both, so the framing stays
// consistent and the code stream holds one escape too many) fails with
// ErrFormat — never a panic or a read past the section. A v3 stream's lane
// directory then counts one escape more than the header: every decode
// fails on it (huffman.ErrEscapeCount) before a code is decoded. A v2 stream keeps
// one outlier cursor over the traversal, so the failure comes from every
// box whose cone contains the point of the missing escape; a box whose
// cone does not reach it may still decode, and then its window is exact.
func TestBoxConeShortOutlierSection(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	// short drops the stream's last outlier value.
	short := func(enc []byte) []byte {
		nOut := int(binary.LittleEndian.Uint32(enc[32:]))
		hoff := len(enc) - int(binary.LittleEndian.Uint32(enc[36:]))
		s := append([]byte(nil), enc[:hoff-4]...)
		s = append(s, enc[hoff:]...)
		binary.LittleEndian.PutUint32(s[32:], uint32(nOut-1))
		return s
	}
	for _, dims := range [][3]int{{7, 5, 9}, {1, 16, 16}, {33, 18, 7}, {8, 128, 128}} {
		nz, ny, nx := dims[0], dims[1], dims[2]
		g := sparseSpikeField[float32](nz, ny, nx, 55)
		enc, err := Compress(g, Options{EB: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		full, err := Decompress[float32](enc)
		if err != nil {
			t.Fatal(err)
		}
		if binary.LittleEndian.Uint32(enc[32:]) == 0 {
			t.Fatalf("%v: field has no escapes", dims)
		}
		boxes := coneBoxes(rng, nz, ny, nx, 20)

		short3 := short(enc)
		for _, b := range boxes {
			if _, err := DecompressBox[float32](short3, b, 1); !errors.Is(err, huffman.ErrEscapeCount) {
				t.Fatalf("%v box %+v of the short v3 stream: err = %v", dims, b, err)
			}
		}
		if _, err := Decompress[float32](short3); !errors.Is(err, huffman.ErrEscapeCount) {
			t.Fatalf("%v: full decode of the short v3 stream: err = %v", dims, err)
		}

		v2 := reframe[float32](t, enc, 2)
		short2 := short(v2)
		// The missing escape belongs to the last zero code of the traversal.
		codes, _, err := refCodes[float32](v2)
		if err != nil {
			t.Fatal(err)
		}
		var lastPass, lz, ly, lx int
		ci := 0
		forEachLine(nz, ny, nx, nil, func(ln line) {
			for i, code := range codes[ci : ci+ln.n] {
				if code == 0 {
					lastPass, lz, ly, lx = ln.pass, ln.z, ln.y, ln.x0+i*ln.stride
				}
			}
			ci += ln.n
		})

		boxes = append(boxes, grid.Box{Z0: lz, Y0: ly, X0: lx, Z1: lz + 1, Y1: ly + 1, X1: lx + 1})
		failed, served := 0, 0
		for _, b := range boxes {
			var needs [maxPasses]grid.Box
			passNeeds(nz, ny, nx, b, &needs)
			rec, err := decodeConePoisoned[float32](short2, nz, ny, nx, b)
			switch {
			case needs[lastPass].Contains(lz, ly, lx):
				if !errors.Is(err, ErrFormat) {
					t.Fatalf("%v box %+v needs the missing escape at (%d,%d,%d): err = %v", dims, b, lz, ly, lx, err)
				}
				failed++
			case err == nil:
				if !sameBits(rec.ExtractBox(b).Data, full.ExtractBox(b).Data) {
					t.Fatalf("%v box %+v: served a wrong window from the short stream", dims, b)
				}
				served++
			case !errors.Is(err, ErrFormat):
				t.Fatalf("%v box %+v: err = %v", dims, b, err)
			}
			if _, err := DecompressBox[float32](short2, b, 1); err != nil && !errors.Is(err, ErrFormat) {
				t.Fatalf("%v box %+v: DecompressBox err = %v", dims, b, err)
			}
		}
		if failed == 0 {
			t.Fatalf("%v: no box exercised the missing escape", dims)
		}
		if dims[0] == 8 && served == 0 {
			t.Fatalf("%v: no box decoded past the missing escape", dims)
		}
		if _, err := Decompress[float32](short2); !errors.Is(err, ErrFormat) {
			t.Fatalf("%v: full decode of the short stream: err = %v", dims, err)
		}
	}
}
