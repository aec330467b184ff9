package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"stz/internal/container"
	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/huffman"
	"stz/internal/quant"
	"stz/internal/rawio"
	"stz/internal/sz3"
)

// walkerCase is one stream shape the single level walker must decode the
// same way through every entry point.
type walkerCase struct {
	name       string
	f32        bool
	nz, ny, nx int
	cfg        Config
	spikes     bool // every fifth value or so ×1e12: escapes in every class
	// fixture: the archive is testdata/<name>.stz, a version-3 chunked
	// stream of the case's field, which no writer of this package produces
	// any more; cfg is what it was written with, less the chunk size.
	fixture bool
}

// walkerCases spans the hierarchy depths, an odd-dims grid whose parity
// classes all differ in size, both element types, an unchunked stream full
// of outliers (the 1e12-spike field of TestOutlierRandomAccessConsistency),
// two thin grids (7 points along x, then along z) whose coarse lattices are
// too short for an interior and split into ragged z-blocks, two grids whose
// class streams span several bricks along every axis at both predicted
// levels, clipped bricks included — one of them full of outliers — and
// three version-3 chunked fixtures: chunks of 4096 codes in both element
// types, and chunks of 512 over the 1e12-spike field, whose escapes the
// reader resynchronises at every chunk boundary.
func walkerCases() []walkerCase {
	mk := func(levels int, mut func(*Config)) Config {
		cfg := DefaultConfig(1e-3)
		cfg.Levels = levels
		if mut != nil {
			mut(&cfg)
		}
		return cfg
	}
	outliers := func(c *Config) { c.EB = 1e-6 }
	return []walkerCase{
		{"L2-f64", false, 33, 18, 21, mk(2, nil), false, false},
		{"L3-f32", true, 33, 18, 21, mk(3, nil), false, false},
		{"L4-f64", false, 33, 18, 21, mk(4, nil), false, false},
		{"L3-f32-chunk4096", true, 48, 40, 44, mk(3, nil), false, true},
		{"L3-f64-chunk4096", false, 33, 18, 21, mk(3, nil), false, true},
		{"L3-f64-chunk512-outliers", false, 33, 18, 21, mk(3, outliers), true, true},
		{"L3-f64-outliers", false, 33, 18, 21, mk(3, outliers), true, false},
		{"L3-f32-thin", true, 33, 18, 7, mk(3, nil), false, false},
		{"L3-f64-thin-outliers", false, 7, 33, 18, mk(3, outliers), true, false},
		{"L3-f32-bricks", true, 96, 80, 72, mk(3, nil), false, false},
		{"L3-f64-bricks-outliers", false, 80, 72, 96, mk(3, outliers), true, false},
	}
}

// caseField is the case's seeded field as element type T.
func caseField[T grid.Float](wc walkerCase) *grid.Grid[T] {
	g := testField[T](wc.nz, wc.ny, wc.nx, 77)
	if wc.spikes {
		rng := rand.New(rand.NewSource(23))
		for i := range g.Data {
			if rng.Intn(5) == 0 {
				g.Data[i] *= 1e12
			}
		}
	}
	return g
}

// encodeCase compresses the case's seeded field as element type T, or
// reads a fixture case's archive.
func encodeCase[T grid.Float](tb testing.TB, wc walkerCase) []byte {
	if wc.fixture {
		enc, err := os.ReadFile(filepath.Join("testdata", wc.name+".stz"))
		if err != nil {
			tb.Fatal(err)
		}
		return enc
	}
	enc, err := Compress(caseField[T](wc), wc.cfg)
	if err != nil {
		tb.Fatalf("%s: %v", wc.name, err)
	}
	return enc
}

func (wc walkerCase) encode(tb testing.TB) []byte {
	if wc.f32 {
		return encodeCase[float32](tb, wc)
	}
	return encodeCase[float64](tb, wc)
}

// TestPinnedWalkerArchives pins the archive bytes of every written walker
// case at Workers 1, 2, 3, 4 and 8: an encoder change that is meant to keep
// archives byte-identical (a faster table build, a new traversal) shows
// here first, and so does a lane task that gathers a brick's escapes out of
// order or miscounts a clipped brick. The hashes are version 4's first
// writer's, re-pinned when the level-1 base moved to sz3's version-3 stream
// (brick lanes), which changed only the base section's bytes: every decode
// stayed bit-identical (TestPinnedWalkerDecodes).
func TestPinnedWalkerArchives(t *testing.T) {
	pins := map[string]string{
		"L2-f64": "b433a865c33ccc89", "L3-f32": "d7a4e1f6410353bc", "L4-f64": "45724407157f6cc8",
		"L3-f64-outliers": "b975b6b5e9ba5216", "L3-f32-thin": "a8f41f4410582d0f",
		"L3-f64-thin-outliers": "deb3b4774e1639d0",
		"L3-f32-bricks":        "5e786b6a51c2b0fb", "L3-f64-bricks-outliers": "4dae4b8cca9913c3",
	}
	for _, wc := range walkerCases() {
		if wc.fixture {
			continue
		}
		want, ok := pins[wc.name]
		if !ok {
			t.Errorf("%s: no pinned archive hash", wc.name)
			continue
		}
		for _, workers := range []int{1, 2, 3, 4, 8} {
			wc.cfg.Workers = workers
			sum := sha256.Sum256(wc.encode(t))
			if got := hex.EncodeToString(sum[:8]); got != want {
				t.Errorf("%s/w%d: archive sha256 %s, pinned %s", wc.name, workers, got, want)
			}
		}
	}
}

// gridDigest is the first 8 bytes of the sha256 of g's dims and values, hex.
func gridDigest[T grid.Float](g *grid.Grid[T]) string {
	buf := make([]byte, 12+len(g.Data)*rawio.ElemSize[T]())
	binary.LittleEndian.PutUint32(buf, uint32(g.Nz))
	binary.LittleEndian.PutUint32(buf[4:], uint32(g.Ny))
	binary.LittleEndian.PutUint32(buf[8:], uint32(g.Nx))
	rawio.PutValues(buf[12:], g.Data)
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// walkerDecodes runs the three pinned decodes of a walker case at workers:
// the full grid, the level below it, and the interior box, which must
// decode every class of the finest level.
func walkerDecodes[T grid.Float](t *testing.T, wc walkerCase, workers int) map[string]string {
	r, err := NewReader[T](encodeCase[T](t, wc))
	if err != nil {
		t.Fatal(err)
	}
	r.Workers = workers
	full, err := r.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	below, err := r.Progressive(wc.cfg.Levels - 1)
	if err != nil {
		t.Fatal(err)
	}
	box, st, err := r.DecompressBox(interiorBox(r.Header()))
	if err != nil {
		t.Fatal(err)
	}
	if d := st.DecodedClasses[wc.cfg.Levels-2]; d != 7 {
		t.Fatalf("interior box decoded %d classes of the finest level, want 7", d)
	}
	return map[string]string{"full": gridDigest(full), "below": gridDigest(below), "box": gridDigest(box)}
}

// TestPinnedWalkerDecodes pins what the decoder writes, as
// TestPinnedWalkerArchives pins what the encoder writes: the digests of the
// full decode, Progressive(Levels−1) and an interior box of every walker
// case, at Workers 1 and 2. They were recorded from version-3 archives,
// before the level sweep's kernels and dequantise row were last rewritten
// and before the class streams were tiled into bricks, so a change meant to
// keep every output bit-identical — a kernel's indexing, the escape path,
// where the output grid is allocated, the stream layout — shows here
// first, in both element types and at every hierarchy depth. The chunk512
// fixture decodes to what its unchunked twin L3-f64-outliers does.
func TestPinnedWalkerDecodes(t *testing.T) {
	pin := func(full, below, box string) map[string]string {
		return map[string]string{"full": full, "below": below, "box": box}
	}
	pins := map[string]map[string]string{
		"L2-f64":                   pin("c561d9631cb61670", "2c63a6fbfa4c4acc", "a0801c5af6e062e3"),
		"L3-f32":                   pin("3d745a547871770c", "032271564815f831", "cbf77c6c6e5d1329"),
		"L4-f64":                   pin("c90b00e7e66a1e51", "9c3e6a30a95798f6", "7b6eb1a1d323668a"),
		"L3-f32-chunk4096":         pin("39aebbf92f2b5793", "ec41498f14514619", "f72f5b54d67e40ec"),
		"L3-f64-chunk4096":         pin("5cd6239049436256", "728b048e0c690df7", "bbeb28391ad21a16"),
		"L3-f64-chunk512-outliers": pin("1720632b2ad90de3", "e119fe7c28e25005", "dcac897056cfce68"),
		"L3-f64-outliers":          pin("1720632b2ad90de3", "e119fe7c28e25005", "dcac897056cfce68"),
		"L3-f32-thin":              pin("67f0aaa6e3a44ccb", "fb56ec8b013c1e9c", "60ef8484bf2044a1"),
		"L3-f64-thin-outliers":     pin("1266ca423b466ff1", "70f3ec2299828e51", "10f22b63df92fec0"),
		"L3-f32-bricks":            pin("454b78587f26a369", "8f0a15ee48913a23", "493d3fc28ac278d5"),
		"L3-f64-bricks-outliers":   pin("c98670320aad8c22", "ed4a322ec5b12931", "25a1f7751df31c4e"),
	}
	for _, wc := range walkerCases() {
		want, ok := pins[wc.name]
		if !ok {
			t.Errorf("%s: no pinned decode digests", wc.name)
		}
		for _, workers := range []int{1, 2} {
			var got map[string]string
			if wc.f32 {
				got = walkerDecodes[float32](t, wc, workers)
			} else {
				got = walkerDecodes[float64](t, wc, workers)
			}
			for _, what := range []string{"full", "below", "box"} {
				if got[what] != want[what] {
					t.Errorf("%s/w%d: %s decode sha256 %s, pinned %s", wc.name, workers, what, got[what], want[what])
				}
			}
		}
	}
}

// TestEscapesSpanZBlocks: the pinned outlier cases really exercise the
// brick-order gather of escapes across lane tasks — some class of the
// finest level has escapes in at least three of its brick z-slabs, each
// written by its own task, and the brick directory's escape counts add up
// to the class's.
func TestEscapesSpanZBlocks(t *testing.T) {
	for _, wc := range walkerCases() {
		if wc.name != "L3-f64-outliers" && wc.name != "L3-f64-bricks-outliers" {
			continue
		}
		r, err := NewReader[float64](wc.encode(t))
		if err != nil {
			t.Fatal(err)
		}
		p := wc.cfg.Levels - 2
		q := quant.Quantizer{EB: r.levelEB(p + 2), Radius: r.hdr.Radius}
		most := 0
		for c, off := range predictedClasses() {
			bz, by, bx := classDims(off, wc.nz, wc.ny, wc.nx)
			bs := newBricks([3]int{bz, by, bx})
			sec, err := r.arc.Section(r.classSection(p, c))
			if err != nil {
				t.Fatal(err)
			}
			_, escs := brickDir(t, sec, q.Alphabet(), bs.count())
			slabs, sum := 0, 0
			for z := 0; z < bs.n[0]; z++ {
				inSlab := 0
				for _, e := range escs[z*bs.slab() : (z+1)*bs.slab()] {
					inSlab += e
				}
				if inSlab > 0 {
					slabs++
				}
				sum += inSlab
			}
			if nOut := int(binary.LittleEndian.Uint32(sec)); sum != nOut {
				t.Errorf("%s class %d: brick escape counts sum to %d, section holds %d", wc.name, c+1, sum, nOut)
			}
			most = max(most, slabs)
		}
		if most < 3 {
			t.Errorf("%s: no class has escapes in 3 brick z-slabs (most: %d)", wc.name, most)
		}
	}
}

// brickDir reads the directory of a version-4 class section of nb bricks:
// every lane's byte length and, when the class has escapes, every brick's
// escape count (else all zero).
func brickDir(tb testing.TB, sec []byte, alphabet, nb int) (lens, escs []int) {
	tb.Helper()
	_, headLen, err := huffman.HeaderLen(sec[4:], alphabet)
	if err != nil {
		tb.Fatal(err)
	}
	dir := sec[4+headLen:]
	lens, escs = make([]int, nb), make([]int, nb)
	for b := range lens {
		lens[b] = int(binary.LittleEndian.Uint16(dir[2*b:]))
		if binary.LittleEndian.Uint32(sec) > 0 {
			escs[b] = int(binary.LittleEndian.Uint16(dir[2*(nb+b):]))
		}
	}
	return lens, escs
}

// randBoxIn draws a non-empty box inside in.
func randBoxIn(rng *rand.Rand, in grid.Box) grid.Box {
	span := func(lo, hi int) (int, int) {
		a := lo + rng.Intn(hi-lo)
		return a, a + 1 + rng.Intn(hi-a)
	}
	var b grid.Box
	b.Z0, b.Z1 = span(in.Z0, in.Z1)
	b.Y0, b.Y1 = span(in.Y0, in.Y1)
	b.X0, b.X1 = span(in.X0, in.X1)
	return b
}

// walkerRegionSets draws the seeded region sets of one grid: a single box,
// 8 disjoint boxes (one per octant), boxes overlapping in a shared point, a
// z-slice, the whole grid, and one thin box inside each of the last three
// z-quarters: boxes that start deep in a class stream — in lanes 1, 2 and 3
// of a version-3 stream, and past its first brick z-slabs in a version-4
// one.
func walkerRegionSets(rng *rand.Rand, nz, ny, nx int) map[string][]grid.Box {
	whole := grid.Box{Z1: nz, Y1: ny, X1: nx}
	var disjoint []grid.Box
	for o := 0; o < 8; o++ {
		oct := grid.Box{Z1: nz / 2, Y1: ny / 2, X1: nx / 2}
		if o&4 != 0 {
			oct.Z0, oct.Z1 = nz/2, nz
		}
		if o&2 != 0 {
			oct.Y0, oct.Y1 = ny/2, ny
		}
		if o&1 != 0 {
			oct.X0, oct.X1 = nx/2, nx
		}
		disjoint = append(disjoint, randBoxIn(rng, oct))
	}
	cz, cy, cx := rng.Intn(nz), rng.Intn(ny), rng.Intn(nx)
	var overlap []grid.Box
	for i := 0; i < 4; i++ {
		lo := randBoxIn(rng, grid.Box{Z1: cz + 1, Y1: cy + 1, X1: cx + 1})
		hi := randBoxIn(rng, grid.Box{Z0: cz, Y0: cy, X0: cx, Z1: nz, Y1: ny, X1: nx})
		overlap = append(overlap, grid.Box{Z0: lo.Z0, Y0: lo.Y0, X0: lo.X0, Z1: hi.Z1, Y1: hi.Y1, X1: hi.X1})
	}
	z := rng.Intn(nz)
	lane := func(k int) []grid.Box {
		b := randBoxIn(rng, whole)
		b.Z0 = min(k*nz/4+2, nz-1)
		b.Z1 = min(b.Z0+3, nz)
		return []grid.Box{b}
	}
	return map[string][]grid.Box{
		"lane1":    lane(1),
		"lane2":    lane(2),
		"lane3":    lane(3),
		"single":   {randBoxIn(rng, whole)},
		"disjoint": disjoint,
		"overlap":  overlap,
		"slice":    {{Z0: z, Z1: z + 1, Y1: ny, X1: nx}},
		"whole":    {whole},
	}
}

func sameGrid[T grid.Float](a, b *grid.Grid[T]) bool {
	if a.Nz != b.Nz || a.Ny != b.Ny || a.Nx != b.Nx {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// checkWalked asserts that every level a decode up to lv walks accounts for
// all 7 predicted classes, and that no other level was touched.
func checkWalked(t *testing.T, what string, st *Stats, lv int) {
	t.Helper()
	for p := range st.DecodedClasses {
		want := 0
		if p <= lv-2 {
			want = 7
		}
		if got := st.DecodedClasses[p] + st.SkippedClasses[p]; got != want {
			t.Errorf("%s: level %d decoded+skipped = %d, want %d", what, p+2, got, want)
		}
	}
}

func runWalkerCase[T grid.Float](t *testing.T, wc walkerCase, workers int) {
	enc := encodeCase[T](t, wc)
	r, err := NewReader[T](enc)
	if err != nil {
		t.Fatal(err)
	}
	r.Workers = workers
	levels := wc.cfg.Levels
	full, st, err := r.DecompressStats()
	if err != nil {
		t.Fatal(err)
	}
	checkWalked(t, "full", st, levels)

	// Progressive(Levels) is the full decode; every coarser level is the
	// class-0 lattice of the one above.
	above := full
	for lv := levels; lv >= 1; lv-- {
		got, err := r.Progressive(lv)
		if err != nil {
			t.Fatalf("Progressive(%d): %v", lv, err)
		}
		if !sameGrid(got, above) {
			t.Fatalf("Progressive(%d) differs from the class-0 chain of the full decode", lv)
		}
		above = got.ExtractStride(grid.Offset3{}, 2)
	}

	rng := rand.New(rand.NewSource(int64(len(wc.name)*10 + workers)))
	for name, regions := range walkerRegionSets(rng, wc.nz, wc.ny, wc.nx) {
		outs, st, err := r.DecompressBoxes(regions)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkWalked(t, name, st, levels)
		for i, b := range regions {
			if !sameGrid(outs[i], full.ExtractBox(b)) {
				t.Errorf("%s: region %d %+v differs from the full decode", name, i, b)
			}
		}
		if name == "slice" {
			got, _, err := r.DecompressSliceZ(regions[0].Z0)
			if err != nil || !sameGrid(got, outs[0]) {
				t.Errorf("DecompressSliceZ(%d) differs from the same box (err %v)", regions[0].Z0, err)
			}
		}
	}
}

// TestWalkerEquivalence: full, progressive and box decodes are one walker,
// so on every stream shape they must agree bit for bit.
func TestWalkerEquivalence(t *testing.T) {
	for _, wc := range walkerCases() {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/w%d", wc.name, workers), func(t *testing.T) {
				if wc.f32 {
					runWalkerCase[float32](t, wc, workers)
				} else {
					runWalkerCase[float64](t, wc, workers)
				}
			})
		}
	}
}

// TestDecodedSymbolsAccounting is the timing-free form of "a box pays for
// what it reads": on a 128³ default-config stream, a 32³ box decodes under
// 30 % of the finest level's symbols, a z-slice under 15 %, and a full
// decode everything. (TestBoxDecodesOnlyTouchedBricks pins the exact
// brick counts.)
func TestDecodedSymbolsAccounting(t *testing.T) {
	g := datasets.Nyx(128, 128, 128, 1001)
	mn, mx := g.Range()
	enc, err := Compress(g, DefaultConfig(quant.AbsoluteBound(1e-3, float64(mn), float64(mx))))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader[float32](enc)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := r.DecompressStats()
	if err != nil {
		t.Fatal(err)
	}
	// A level's classes are its grid minus the coarse lattice.
	if want := [3]int{64*64*64 - 32*32*32, 128*128*128 - 64*64*64, 0}; st.TotalSymbols != want {
		t.Fatalf("full decode: TotalSymbols %v, want %v", st.TotalSymbols, want)
	}
	if st.DecodedSymbols != st.TotalSymbols {
		t.Fatalf("full decode: decoded %v of %v symbols", st.DecodedSymbols, st.TotalSymbols)
	}
	finest := func(st *Stats) float64 {
		return float64(st.DecodedSymbols[1]) / float64(st.TotalSymbols[1])
	}
	_, st, err = r.DecompressBox(grid.Box{Z0: 32, Y0: 40, X0: 40, Z1: 64, Y1: 72, X1: 72})
	if err != nil {
		t.Fatal(err)
	}
	if f := finest(st); f <= 0 || f > 0.30 {
		t.Errorf("32³ box decoded %.1f%% of the finest level's symbols, want (0, 30]", 100*f)
	}
	for _, z := range []int{77, 90} {
		_, st, err = r.DecompressSliceZ(z)
		if err != nil {
			t.Fatal(err)
		}
		if f := finest(st); f <= 0 || f > 0.15 {
			t.Errorf("z-slice %d decoded %.1f%% of the finest level's symbols, want (0, 15]", z, 100*f)
		}
	}
	if _, st, err = r.DecompressSliceZ(128); err == nil || st == nil {
		t.Errorf("out-of-range slice: err %v, stats %v; want an error and non-nil stats", err, st)
	}
}

// patchHeader returns a copy of enc whose 44-byte core header was edited by
// mut (the container checksum covers only the directory).
func patchHeader(tb testing.TB, enc []byte, mut func(h []byte)) []byte {
	out := append([]byte(nil), enc...)
	arc, err := container.Open(out)
	if err != nil {
		tb.Fatal(err)
	}
	h, err := arc.Section(0)
	if err != nil {
		tb.Fatal(err)
	}
	mut(h) // aliases out
	return out
}

// walkerCaseNamed returns the walker case called name.
func walkerCaseNamed(tb testing.TB, name string) walkerCase {
	for _, wc := range walkerCases() {
		if wc.name == name {
			return wc
		}
	}
	tb.Fatalf("no walker case %s", name)
	return walkerCase{}
}

// reservedHeaders re-frames enc, a version-4 stream, and v3, a version-3
// chunked one, with each header field no supported writer sets: the
// partition-only byte 2 and the residual-coder byte 5 in either version,
// and a chunk size in version 4.
func reservedHeaders(tb testing.TB, enc, v3 []byte) map[string][]byte {
	byte2 := func(h []byte) { h[2] = 1 }
	byte5 := func(h []byte) { h[5] = 1 }
	return map[string][]byte{
		"partition-only v4": patchHeader(tb, enc, byte2),
		"partition-only v3": patchHeader(tb, v3, byte2),
		"residual sz3 v4":   patchHeader(tb, enc, byte5),
		"residual sz3 v3":   patchHeader(tb, v3, byte5),
		"residual 7":        patchHeader(tb, enc, func(h []byte) { h[5] = 7 }),
		"code chunk v4":     patchHeader(tb, enc, func(h []byte) { binary.LittleEndian.PutUint32(h[40:], 4096) }),
	}
}

// TestCraftedHeaderRejected re-frames a valid stream with header fields no
// writer produces: NewReader must refuse each one before anything is sized
// from it, quickly and without allocating more than the input. A reserved
// field — the ablation coders' bytes, a chunk size in version 4 — is
// refused with errReservedHeader, whatever else the stream holds.
func TestCraftedHeaderRejected(t *testing.T) {
	le32 := func(off int, v uint32) func([]byte) {
		return func(h []byte) { binary.LittleEndian.PutUint32(h[off:], v) }
	}
	f64 := func(off int, v float64) func([]byte) {
		return func(h []byte) { binary.LittleEndian.PutUint64(h[off:], math.Float64bits(v)) }
	}
	enc := encodeCase[float32](t, walkerCase{name: "crafted", nz: 16, ny: 16, nx: 16, cfg: DefaultConfig(1e-3)})
	reject := func(t *testing.T, bad []byte, want error) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		_, err := NewReader[float32](bad)
		took := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err == nil {
			t.Fatal("crafted header accepted")
		}
		if want != nil && !errors.Is(err, want) {
			t.Errorf("err %v, want %v", err, want)
		}
		if took > 10*time.Millisecond {
			t.Errorf("rejection took %v", took)
		}
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > uint64(len(bad)) {
			t.Errorf("rejection allocated %d bytes for a %d-byte input", alloc, len(bad))
		}
	}
	v3 := encodeCase[float32](t, walkerCaseNamed(t, "L3-f32-chunk4096"))
	for name, bad := range reservedHeaders(t, enc, v3) {
		t.Run(name, func(t *testing.T) { reject(t, bad, errReservedHeader) })
	}
	for _, tc := range []struct {
		name string
		mut  func([]byte)
	}{
		{"radius 1<<30", le32(36, 1<<30)},
		{"radius 32769", le32(36, 32769)},
		{"predictor 9", func(h []byte) { h[4] = 9 }},
		{"levels 5", func(h []byte) { h[3] = 5 }},
		{"ebratio 0", f64(28, 0)},
		{"ebratio -2.5", f64(28, -2.5)},
		{"ebratio +Inf", f64(28, math.Inf(1))},
		{"ebratio NaN", f64(28, math.NaN())},
		{"eb +Inf", f64(20, math.Inf(1))},
		{"dims wrap 2^31·2^31·4", func(h []byte) { le32(8, 1<<31)(h); le32(12, 1<<31)(h); le32(16, 4)(h) }},
		{"dims 2^33+", func(h []byte) { le32(8, 4096)(h); le32(12, 4096)(h); le32(16, 4096)(h) }},
		{"zero dim", le32(12, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) { reject(t, patchHeader(t, enc, tc.mut), nil) })
	}
	// The non-adaptive ratio is never read, so it is not policed.
	ok := patchHeader(t, enc, func(h []byte) { h[6] = 0; f64(28, 0)(h) })
	if _, err := NewReader[float32](ok); err != nil {
		t.Fatalf("non-adaptive stream with a zero ratio rejected: %v", err)
	}
}

// fuzzAllocCeiling bounds what decoding one fuzz input may allocate: the
// seeds are ≤ 48×40×44 float32 grids (0.3 MB decoded), so anything near
// this is a header field sizing an allocation unchecked.
const fuzzAllocCeiling = 256 << 20

// interiorBox is a box a quarter of the grid wide a third of the way in:
// its level-1 cone is a strict part of the base.
func interiorBox(h Header) grid.Box {
	return grid.Box{Z0: h.Fz / 3, Y0: h.Fy / 3, X0: h.Fx / 3, Z1: h.Fz/3 + 1 + h.Fz/4, Y1: h.Fy/3 + 1 + h.Fy/4, X1: h.Fx/3 + 1 + h.Fx/4}
}

func fuzzDecode[T grid.Float](data []byte) {
	r, err := NewReader[T](data)
	if err != nil {
		return
	}
	r.Decompress()
	r.Progressive(1)
	r.DecompressBox(interiorBox(r.Header()))
}

// badBaseDims re-frames the L3-f32 walker case with a section 1 that is a
// valid sz3 payload of the wrong grid: one point too large, and one point
// too small, along z.
func badBaseDims(tb testing.TB) map[string][]byte {
	wc := walkerCases()[1]
	enc := wc.encode(tb)
	r, err := NewReader[float32](enc)
	if err != nil {
		tb.Fatal(err)
	}
	d := r.chainDims()[wc.cfg.Levels-1]
	out := map[string][]byte{}
	for name, dz := range map[string]int{"z+1": 1, "z-1": -1} {
		sec, err := sz3.Compress(testField[float32](d[0]+dz, d[1], d[2], 3), sz3.DefaultOptions(wc.cfg.EB))
		if err != nil {
			tb.Fatal(err)
		}
		out[name] = withSections(tb, enc, map[int][]byte{1: sec})
	}
	return out
}

// TestBaseDimsMismatchRejected: a level-1 payload that decodes fine but to
// the wrong grid is refused by the full, progressive and box paths alike —
// the box path, whose cone decode returns a need-sized grid, by reading the
// payload's dims before it decodes anything.
func TestBaseDimsMismatchRejected(t *testing.T) {
	for name, bad := range badBaseDims(t) {
		r, err := NewReader[float32](bad)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := r.Decompress(); err == nil {
			t.Errorf("%s: Decompress accepted the base", name)
		}
		for lv := 1; lv <= r.Header().Levels; lv++ {
			if _, err := r.Progressive(lv); err == nil {
				t.Errorf("%s: Progressive(%d) accepted the base", name, lv)
			}
		}
		if _, _, err := r.DecompressBox(interiorBox(r.Header())); err == nil {
			t.Errorf("%s: DecompressBox accepted the base", name)
		}
	}
}

// TestHeaderDimsCheckedBeforeSizing: a header whose dims disagree with its
// base's payload is refused before the decode phase sizes class streams or
// output grids from them — a 65313×18×21 f64 header (a 197 MB grid) over a
// 33×18×21 stream, through the full, progressive and box paths alike,
// allocates next to nothing: the reader reads the sz3 payload's dims without
// decoding it.
func TestHeaderDimsCheckedBeforeSizing(t *testing.T) {
	wc := walkerCases()[0]
	bad := patchHeader(t, wc.encode(t), func(h []byte) { binary.LittleEndian.PutUint32(h[8:], 33+256*255) })
	r, err := NewReader[float64](bad)
	if err != nil {
		t.Fatal(err)
	}
	for name, decode := range map[string]func() error{
		"Decompress":     func() error { _, err := r.Decompress(); return err },
		"Progressive(2)": func() error { _, err := r.Progressive(2); return err },
		"DecompressBox":  func() error { _, _, err := r.DecompressBox(interiorBox(r.Header())); return err },
	} {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := decode()
		runtime.ReadMemStats(&m1)
		if !errors.Is(err, errL1Dims) {
			t.Errorf("%s: err %v, want %v", name, err, errL1Dims)
		}
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 1<<20 {
			t.Errorf("%s allocated %d bytes before refusing the base", name, alloc)
		}
	}
}

// FuzzReader: no byte string may panic the paper's decoder or make it
// allocate past the ceiling, through the full, progressive and box paths.
func FuzzReader(f *testing.F) {
	for _, wc := range walkerCases() {
		if wc.nz*wc.ny*wc.nx > 48*40*44 {
			continue // the multi-brick grids: too slow to mutate, and brickDirSeeds cover their layout
		}
		enc := wc.encode(f)
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	// Base ID 5 is the codec itself: unchecked, each nested level-1 payload
	// is one more reader on the stack.
	for _, bad := range selfBased(f, walkerCases()[1].encode(f)) {
		f.Add(bad)
	}
	// A base a non-sz3 writer would have left: refused by its ID alone.
	f.Add(zfpBased(f, walkerCases()[1].encode(f)))
	for _, bad := range badBaseDims(f) {
		f.Add(bad)
	}
	for _, bad := range brickDirSeeds(f) {
		f.Add(bad)
	}
	v3 := walkerCaseNamed(f, "L3-f32-chunk4096").encode(f)
	for _, bad := range reservedHeaders(f, walkerCases()[1].encode(f), v3) {
		f.Add(bad)
	}
	// The pinned legacy streams reach what the walker fixtures do not: an
	// unchunked legacy class with outliers — core (v2, outliers in 10 of
	// its 14 classes) and core_v3 (v3 lanes, 50–1 628 per class) — and a
	// v2 chunked one, core_codechunk (CodeChunk 512).
	for _, name := range []string{"core", "core_codechunk", "core_v3"} {
		enc, err := os.ReadFile(filepath.Join("..", "integration", "testdata", name+".bin"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		fuzzDecode[float32](data)
		fuzzDecode[float64](data)
		runtime.ReadMemStats(&m1)
		if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > fuzzAllocCeiling {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
	})
}
