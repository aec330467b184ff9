package sz3

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/huffman"
	"stz/internal/scratch"
)

// refLaneCounts counts every lane's codes by walking the traversal through
// refLane, independently of the tiling's closed-form laneCodes.
func refLaneCounts(nz, ny, nx int) []int {
	tl := newTiling(nz, ny, nx)
	counts := make([]int, tl.lanes)
	forEachLine(nz, ny, nx, nil, func(ln *line) {
		for t := 0; t < ln.n; t++ {
			counts[refLane(&tl, ln.z, ln.y, ln.x0+t*ln.stride)]++
		}
	})
	return counts
}

// TestBrickLaneCountsMatchTraversal: the closed-form brick code counts are
// the traversal's, lane by lane, and every predicted point has a lane.
func TestBrickLaneCountsMatchTraversal(t *testing.T) {
	for _, dims := range append(traversalDims, [3]int{17, 1, 1}, [3]int{40, 36, 70}, [3]int{9, 130, 33}) {
		tl := newTiling(dims[0], dims[1], dims[2])
		want, got := refLaneCounts(dims[0], dims[1], dims[2]), tl.laneCodes()
		total := 0
		for l := range want {
			if got[l] != want[l] {
				t.Fatalf("%v: lane %d holds %d codes, the traversal puts %d there", dims, l, got[l], want[l])
			}
			total += got[l]
		}
		g := &grid.Grid[float32]{Nz: dims[0], Ny: dims[1], Nx: dims[2]}
		if total != dims[0]*dims[1]*dims[2]-anchorCount(g) {
			t.Fatalf("%v: %d codes in the lanes for %d predicted points", dims, total, dims[0]*dims[1]*dims[2]-anchorCount(g))
		}
	}
}

// touchedCodes is the code count of the lanes that hold a point of box
// b's cone — a point of some pass inside that pass's need-box — found by
// walking the traversal, and the stream's total.
func touchedCodes(nz, ny, nx int, b grid.Box) (touched, total int) {
	var needs [maxPasses]grid.Box
	passNeeds(nz, ny, nx, b, &needs)
	tl := newTiling(nz, ny, nx)
	hit := make([]bool, tl.lanes)
	forEachLine(nz, ny, nx, nil, func(ln *line) {
		for t := 0; t < ln.n; t++ {
			if x := ln.x0 + t*ln.stride; needs[ln.pass].Contains(ln.z, ln.y, x) {
				hit[refLane(&tl, ln.z, ln.y, x)] = true
			}
		}
	})
	for l, n := range refLaneCounts(nz, ny, nx) {
		if hit[l] {
			touched += n
		}
		total += n
	}
	return touched, total
}

// TestSz3BoxDecodesOnlyTouchedLanes: on the 8×128×128 slab a stzd miss
// decodes, a 32² box entropy-decodes exactly the codes of the lanes that
// hold a point of its cone, and a full decode decodes every code. How many
// lanes that is depends on how the box sits on the bricks: BenchmarkSZ3Slab's
// window decodes 23.4 % of the codes, and a 32² box decodes at most a
// quarter of them on average over every position in the slab (from 20 % to
// 43 %).
func TestSz3BoxDecodesOnlyTouchedLanes(t *testing.T) {
	g := datasets.Nyx(8, 128, 128, 1001)
	enc, err := Compress(g, Options{EB: relBound(g, 1e-3)})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress[float32](enc)
	if err != nil {
		t.Fatal(err)
	}
	decoded := func(b grid.Box) int {
		sd, err := openSerial[float32](enc, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer sd.release()
		return sd.lanes.decoded
	}
	box := func(y, x int) grid.Box { return grid.Box{Z1: 8, Y0: y, Y1: y + 32, X0: x, X1: x + 32} }
	for _, b := range []grid.Box{box(40, 56), box(0, 0), box(96, 96), box(48, 48), box(17, 83), {Z0: 3, Z1: 5, Y0: 60, Y1: 92, X0: 7, X1: 39}} {
		want, total := touchedCodes(8, 128, 128, b)
		if got := decoded(b); got != want {
			t.Errorf("box %+v decoded %d codes, its touched lanes hold %d", b, got, want)
		}
		if b == box(40, 56) && 4*want > total {
			t.Errorf("box %+v decodes %d of %d codes, over a quarter", b, want, total)
		}
		got, err := DecompressBox[float32](enc, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got.Data, full.ExtractBox(b).Data) {
			t.Fatalf("box %+v differs from the full decode's window", b)
		}
	}
	whole := grid.Box{Z1: 8, Y1: 128, X1: 128}
	if _, total := touchedCodes(8, 128, 128, whole); decoded(whole) != total {
		t.Errorf("full decode decoded %d of %d codes", decoded(whole), total)
	}

	tl := newTiling(8, 128, 128)
	counts := tl.laneCodes()
	sum, n := 0, 0
	for y := 0; y <= 96; y++ {
		for x := 0; x <= 96; x++ {
			var needs [maxPasses]grid.Box
			passNeeds(8, 128, 128, box(y, x), &needs)
			touched := make([]bool, tl.lanes)
			tl.mark(&needs, touched)
			for l, c := range counts {
				if touched[l] {
					sum += c
				}
				n += c
			}
		}
	}
	if 4*sum > n {
		t.Errorf("a 32² box decodes %.1f %% of the codes on average", 100*float64(sum)/float64(n))
	}
}

// TestBrickLanesParallelDecode: lane pairs handed to workers decode what
// one goroutine decodes, full grid and boxes, escapes included.
func TestBrickLanesParallelDecode(t *testing.T) {
	g := sparseSpikeField[float32](16, 96, 128, 71)
	enc, err := Compress(g, Options{EB: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if binary.LittleEndian.Uint32(enc[32:]) == 0 {
		t.Fatal("field has no escapes")
	}
	want, err := DecompressWorkers[float32](enc, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		got, err := DecompressWorkers[float32](enc, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got.Data, want.Data) {
			t.Fatalf("workers=%d: full decode differs from one worker's", workers)
		}
		b := grid.Box{Z0: 3, Z1: 15, Y0: 10, Y1: 90, X0: 5, X1: 120}
		box, err := DecompressBox[float32](enc, b, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(box.Data, want.ExtractBox(b).Data) {
			t.Fatalf("workers=%d: box differs from the full decode's window", workers)
		}
	}
}

// laneDir locates the lane directory of a v3 serial stream: its offset in
// the stream, the lane count and its entry count (two per lane when the
// stream has escapes).
func laneDir[T grid.Float](tb testing.TB, enc []byte) (dir, lanes, entries int) {
	tb.Helper()
	nz, ny, nx, version, err := parseSerialDims[T](enc)
	if err != nil || version != 3 {
		tb.Fatalf("not a v3 stream (version %d, err %v)", version, err)
	}
	hoff := len(enc) - int(binary.LittleEndian.Uint32(enc[36:]))
	_, headLen, err := huffman.HeaderLen(enc[hoff:], 2*int(binary.LittleEndian.Uint32(enc[28:])))
	if err != nil {
		tb.Fatal(err)
	}
	tl := newTiling(nz, ny, nx)
	entries = tl.lanes
	if binary.LittleEndian.Uint32(enc[32:]) > 0 {
		entries *= 2
	}
	return hoff + headLen, tl.lanes, entries
}

// TestBrickLaneDirectoryErrors: each way a lane directory can lie fails
// with its own typed error, the laned section's (huffman.OpenSection),
// wrapped in ErrFormat. A truncated directory, lengths that over- or
// under-run the code section, escape counts off their sum and a code count
// off the grid are refused before any code or float buffer is leased; a
// lane that ends before or after its codes, or holds a zero code its
// escape count does not count, is found as it decodes — before the output
// grid is leased.
func TestBrickLaneDirectoryErrors(t *testing.T) {
	leases := func(names ...string) uint64 {
		all, n := scratch.All(), uint64(0)
		for _, name := range names {
			n += all[name].Hits + all[name].Misses
		}
		return n
	}
	g := sparseSpikeField[float32](9, 40, 70, 81)
	enc, err := Compress(g, Options{EB: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	dir, lanes, entries := laneDir[float32](t, enc)
	if entries != 2*lanes {
		t.Fatal("field has no escapes")
	}
	u16 := func(b []byte, e int) int { return int(binary.LittleEndian.Uint16(b[dir+2*e:])) }
	put := func(b []byte, e, v int) { binary.LittleEndian.PutUint16(b[dir+2*e:], uint16(v)) }
	// A lane with bytes behind one with bytes, the first odd: full decodes
	// pair lanes (0,1), (2,3), …, so lane a is checked before lane a+1.
	a := -1
	for l := 1; l+1 < lanes; l += 2 {
		if u16(enc, l) > 1 && u16(enc, l+1) > 1 {
			a = l
			break
		}
	}
	if a < 0 {
		t.Fatal("no odd lane with a non-empty successor")
	}
	type mutation struct {
		name   string
		want   error
		sizing bool // refused before any lease
		mut    func(b []byte) []byte
	}
	for _, m := range []mutation{
		{"lane over-runs", huffman.ErrLaneBounds, true, func(b []byte) []byte { put(b, 0, u16(b, 0)+1); return b }},
		{"lane under-runs", huffman.ErrLaneBounds, true, func(b []byte) []byte { put(b, a, u16(b, a)-1); return b }},
		{"escape count up", huffman.ErrEscapeCount, true, func(b []byte) []byte { put(b, lanes, u16(b, lanes)+1); return b }},
		{"code count off the grid", huffman.ErrCodeCount, true, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:], 69)
			return b
		}},
		{"lane ends before its codes", huffman.ErrLaneShort, false, func(b []byte) []byte {
			put(b, a, u16(b, a)-1)
			put(b, a+1, u16(b, a+1)+1)
			return b
		}},
		{"lane ends after its codes", huffman.ErrLaneLong, false, func(b []byte) []byte {
			put(b, a, u16(b, a)+1)
			put(b, a+1, u16(b, a+1)-1)
			return b
		}},
		// Lane x's escapes leave its directory entry, the header's count and
		// the outlier section: only its zero codes still say they are
		// there, and the lane decode finds them before the grid is leased.
		{"zero code in a lane that counts none", huffman.ErrEscapeCount, false, func(b []byte) []byte {
			x, esc0 := 0, 0
			for ; u16(b, lanes+x) == 0; x++ {
			}
			for l := 0; l < x; l++ {
				esc0 += u16(b, lanes+l)
			}
			e, nOut := u16(b, lanes+x), int(binary.LittleEndian.Uint32(b[32:]))
			put(b, lanes+x, 0)
			binary.LittleEndian.PutUint32(b[32:], uint32(nOut-e))
			vals := len(b) - int(binary.LittleEndian.Uint32(b[36:])) - 4*nOut + 4*esc0
			return append(b[:vals:vals], b[vals+4*e:]...)
		}},
		// A directory is 2 bytes a lane, lanes hold up to 3 584 codes each
		// and the code header refuses a section shorter than a bit a code,
		// so only a stream with lanes of few codes can reach this check.
		{"directory truncated", huffman.ErrLaneDir, true, func([]byte) []byte {
			small, err := Compress(smoothField[float32](17, 1, 2, 82), Options{EB: 1e-3})
			if err != nil {
				t.Fatal(err)
			}
			dir, _, _ := laneDir[float32](t, small)
			hoff := len(small) - int(binary.LittleEndian.Uint32(small[36:]))
			binary.LittleEndian.PutUint32(small[36:], uint32(dir+1-hoff))
			return small[:dir+1]
		}},
	} {
		bad := m.mut(append([]byte(nil), enc...))
		grids, codes := leases("float32", "float64"), leases("uint16")
		_, err := DecompressWorkers[float32](bad, 1)
		if !errors.Is(err, m.want) || !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want %v", m.name, err, m.want)
		}
		if n := leases("float32", "float64") - grids; n != 0 {
			t.Errorf("%s: %d grid leases before the stream was refused", m.name, n)
		}
		if n := leases("uint16") - codes; m.sizing && n != 0 {
			t.Errorf("%s: %d leases before the directory was refused", m.name, n)
		}
		nz, ny, nx, _ := Dims(bad)
		if _, err := DecompressBox[float32](bad, grid.Box{Z1: nz, Y1: ny, X1: nx}, 1); !errors.Is(err, m.want) {
			t.Errorf("%s: whole-grid box err = %v, want %v", m.name, err, m.want)
		}
	}
}

// FuzzDecompressBox's v3 seeds (fuzzLaneSeeds) reach the lane directory:
// the stream cut one byte before, at and after every directory entry, and
// the stream with each entry corrupted.
func fuzzLaneSeeds[T grid.Float](f *testing.F, enc []byte, add func([]byte)) {
	dir, _, entries := laneDir[T](f, enc)
	rng := rand.New(rand.NewSource(int64(len(enc))))
	for e := 0; e < entries; e++ {
		for _, cut := range []int{dir + 2*e - 1, dir + 2*e, dir + 2*e + 1} {
			add(append([]byte(nil), enc[:cut]...))
		}
		bad := append([]byte(nil), enc...)
		bad[dir+2*e] ^= byte(1 + rng.Intn(255))
		add(bad)
	}
}
