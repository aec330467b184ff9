package grid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func fillRandom[T Float](g *Grid[T], seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := range g.Data {
		g.Data[i] = T(rng.NormFloat64())
	}
}

func TestIndexing(t *testing.T) {
	g := New[float64](3, 4, 5)
	g.Set(2, 3, 4, 42)
	if g.At(2, 3, 4) != 42 {
		t.Fatal("Set/At mismatch")
	}
	if g.Idx(2, 3, 4) != 2*4*5+3*5+4 {
		t.Fatalf("Idx=%d", g.Idx(2, 3, 4))
	}
	if g.Len() != 60 {
		t.Fatalf("Len=%d", g.Len())
	}
}

func TestFromDataValidation(t *testing.T) {
	if _, err := FromData(make([]float32, 10), 2, 2, 2); err == nil {
		t.Fatal("size mismatch accepted")
	}
	g, err := FromData(make([]float32, 8), 2, 2, 2)
	if err != nil || g.Nx != 2 {
		t.Fatalf("valid FromData failed: %v", err)
	}
}

func TestNDims(t *testing.T) {
	cases := []struct {
		nz, ny, nx, want int
	}{
		{4, 4, 4, 3}, {1, 4, 4, 2}, {1, 1, 4, 1}, {1, 1, 1, 1},
	}
	for _, c := range cases {
		g := New[float64](c.nz, c.ny, c.nx)
		if g.NDims() != c.want {
			t.Errorf("%dx%dx%d: NDims=%d want %d", c.nz, c.ny, c.nx, g.NDims(), c.want)
		}
	}
}

func TestRange(t *testing.T) {
	g := New[float64](1, 1, 4)
	copy(g.Data, []float64{3, -1, 2, 0})
	min, max := g.Range()
	if min != -1 || max != 3 {
		t.Fatalf("range = [%g, %g]", min, max)
	}
}

func TestSubDim(t *testing.T) {
	// For n=5, stride 2: offsets 0 -> {0,2,4} (3), 1 -> {1,3} (2).
	if SubDim(5, 0, 2) != 3 || SubDim(5, 1, 2) != 2 {
		t.Fatal("SubDim stride 2 wrong")
	}
	// n=1: offset 1 is empty.
	if SubDim(1, 1, 2) != 0 {
		t.Fatal("SubDim empty case wrong")
	}
	// stride 4 over n=10, offset 3 -> {3,7} (2).
	if SubDim(10, 3, 4) != 2 {
		t.Fatal("SubDim stride 4 wrong")
	}
}

func TestPartitionAssembleBijection3D(t *testing.T) {
	for _, dims := range [][3]int{{8, 8, 8}, {7, 9, 5}, {1, 6, 6}, {1, 1, 9}, {2, 2, 2}, {3, 1, 1}} {
		g := New[float64](dims[0], dims[1], dims[2])
		fillRandom(g, 7)
		blocks := PartitionStride2(g)
		var total int
		for _, b := range blocks {
			total += b.Len()
		}
		if total != g.Len() {
			t.Fatalf("dims %v: partition loses points: %d vs %d", dims, total, g.Len())
		}
		back := AssembleStride2(blocks, dims[0], dims[1], dims[2])
		for i := range g.Data {
			if back.Data[i] != g.Data[i] {
				t.Fatalf("dims %v: mismatch at %d", dims, i)
			}
		}
	}
}

func TestPartitionQuick(t *testing.T) {
	f := func(zRaw, yRaw, xRaw uint8, seed int64) bool {
		nz, ny, nx := int(zRaw)%6+1, int(yRaw)%6+1, int(xRaw)%6+1
		g := New[float32](nz, ny, nx)
		fillRandom(g, seed)
		back := AssembleStride2(PartitionStride2(g), nz, ny, nx)
		for i := range g.Data {
			if back.Data[i] != g.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestExtractInsertStride4(t *testing.T) {
	g := New[float64](9, 9, 9)
	fillRandom(g, 3)
	out := New[float64](9, 9, 9)
	for oz := 0; oz < 4; oz++ {
		for oy := 0; oy < 4; oy++ {
			for ox := 0; ox < 4; ox++ {
				off := Offset3{oz, oy, ox}
				sub := g.ExtractStride(off, 4)
				out.InsertStride(sub, off, 4)
			}
		}
	}
	for i := range g.Data {
		if out.Data[i] != g.Data[i] {
			t.Fatalf("stride-4 decomposition not bijective at %d", i)
		}
	}
}

func TestExtractStrideValues(t *testing.T) {
	g := New[float64](1, 4, 4)
	for i := range g.Data {
		g.Data[i] = float64(i)
	}
	sub := g.ExtractStride(Offset3{0, 1, 0}, 2)
	// Rows y=1,3; columns x=0,2 -> values 4,6,12,14.
	want := []float64{4, 6, 12, 14}
	for i, w := range want {
		if sub.Data[i] != w {
			t.Fatalf("sub[%d]=%g want %g", i, sub.Data[i], w)
		}
	}
}

func TestBoxBasics(t *testing.T) {
	b := Box{1, 2, 3, 4, 5, 6}
	if b.Volume() != 27 {
		t.Fatalf("volume=%d", b.Volume())
	}
	if !b.Contains(1, 2, 3) || b.Contains(4, 2, 3) {
		t.Fatal("Contains wrong at edges")
	}
	if (Box{0, 0, 0, 0, 1, 1}).Empty() != true {
		t.Fatal("empty box not detected")
	}
	c := Box{-1, 0, 1, 6, 7, 8}.Clip(4, 4, 4)
	if c.Z0 != 0 || c.Z1 != 4 {
		t.Fatalf("clip wrong: %+v", c)
	}
}

func TestBoxUnion(t *testing.T) {
	a := Box{0, 0, 0, 1, 1, 1}
	b := Box{2, 2, 2, 3, 3, 3}
	u := a.Union(b)
	if u != (Box{0, 0, 0, 3, 3, 3}) {
		t.Fatalf("union=%+v", u)
	}
	var empty Box
	if a.Union(empty) != a || empty.Union(a) != a {
		t.Fatal("empty union identity broken")
	}
}

func TestSubBox(t *testing.T) {
	// Grid 8³, stride 2, offset (0,0,1). Original x positions: 1,3,5,7.
	// Box x in [2,6) covers originals {3,5} -> sub indices {1,2}.
	b := SubBox(Box{0, 0, 2, 8, 8, 6}, Offset3{0, 0, 1}, 2, 8, 8, 8)
	if b.X0 != 1 || b.X1 != 3 {
		t.Fatalf("SubBox x = [%d,%d) want [1,3)", b.X0, b.X1)
	}
	if b.Z0 != 0 || b.Z1 != 4 {
		t.Fatalf("SubBox z = [%d,%d) want [0,4)", b.Z0, b.Z1)
	}
}

func TestSubBoxConsistentWithExtract(t *testing.T) {
	// Property: the points selected by SubBox are exactly the sub-block
	// points whose original coordinates fall in the box.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		nz, ny, nx := rng.Intn(7)+2, rng.Intn(7)+2, rng.Intn(7)+2
		b := Box{
			rng.Intn(nz), rng.Intn(ny), rng.Intn(nx),
			rng.Intn(nz) + 1, rng.Intn(ny) + 1, rng.Intn(nx) + 1,
		}
		b = b.Clip(nz, ny, nx)
		for _, off := range Stride2Offsets {
			sb := SubBox(b, off, 2, nz, ny, nx)
			// Enumerate sub-block coords, verify membership equivalence.
			for sz := 0; sz < SubDim(nz, off.Z, 2); sz++ {
				for sy := 0; sy < SubDim(ny, off.Y, 2); sy++ {
					for sx := 0; sx < SubDim(nx, off.X, 2); sx++ {
						oz, oy, ox := off.Z+2*sz, off.Y+2*sy, off.X+2*sx
						inOrig := b.Contains(oz, oy, ox)
						inSub := sb.Contains(sz, sy, sx)
						if inOrig != inSub {
							t.Fatalf("dims (%d,%d,%d) box %+v off %+v: sub (%d,%d,%d) orig (%d,%d,%d): %v vs %v",
								nz, ny, nx, b, off, sz, sy, sx, oz, oy, ox, inOrig, inSub)
						}
					}
				}
			}
		}
	}
}

func TestExtractBox(t *testing.T) {
	g := New[float64](4, 4, 4)
	for i := range g.Data {
		g.Data[i] = float64(i)
	}
	sub := g.ExtractBox(Box{1, 1, 1, 3, 3, 3})
	if sub.Nz != 2 || sub.Ny != 2 || sub.Nx != 2 {
		t.Fatalf("dims %d %d %d", sub.Nz, sub.Ny, sub.Nx)
	}
	if sub.At(0, 0, 0) != g.At(1, 1, 1) || sub.At(1, 1, 1) != g.At(2, 2, 2) {
		t.Fatal("box values wrong")
	}
}

func TestConversions(t *testing.T) {
	g := New[float32](1, 1, 3)
	copy(g.Data, []float32{1.5, -2.25, 0})
	d := ToFloat64(g)
	if d.Data[1] != -2.25 {
		t.Fatal("ToFloat64 wrong")
	}
	f := ToFloat32(d)
	for i := range g.Data {
		if f.Data[i] != g.Data[i] {
			t.Fatal("round-trip conversion wrong")
		}
	}
}

func TestClone(t *testing.T) {
	g := New[float64](2, 2, 2)
	fillRandom(g, 1)
	c := g.Clone()
	c.Data[0] = 999
	if g.Data[0] == 999 {
		t.Fatal("clone shares storage")
	}
}
