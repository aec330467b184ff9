package core

import (
	"encoding/binary"
	"errors"
	"testing"

	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/huffman"
	"stz/internal/quant"
)

// touchedBricks is the geometry's answer to what a box costs: over the
// views of one predicted level (fine dims fdims), the bricks each class's
// points in them touch, by count and by edge-clipped volume.
func touchedBricks(fdims [3]int, views []grid.Box) (bricksTouched, symbols int) {
	for _, off := range predictedClasses() {
		bz, by, bx := classDims(off, fdims[0], fdims[1], fdims[2])
		bs := newBricks([3]int{bz, by, bx})
		hit := make(map[int]bool)
		for _, v := range views {
			sb := grid.SubBox(v, off, 2, fdims[0], fdims[1], fdims[2])
			for z := sb.Z0; z < sb.Z1; z++ {
				for y := sb.Y0; y < sb.Y1; y++ {
					for x := sb.X0; x < sb.X1; x++ {
						hit[((z/brickZ)*bs.n[1]+y/brickY)*bs.n[2]+x/brickX] = true
					}
				}
			}
		}
		for b := range hit {
			bricksTouched++
			symbols += bs.box(b).Volume()
		}
	}
	return bricksTouched, symbols
}

// TestBoxDecodesOnlyTouchedBricks is the timing-free form of "a box pays for
// its bricks, not its z-range": on a 128³ f32 stream, 32³ boxes at z 16, 48
// and 80 — the same phase against the bricks of both predicted levels —
// entropy-decode at each level exactly the edge-clipped volume of the
// bricks their views touch, the same count at every z, where a lane-prefix
// stream paid for every plane below the box. Every box is still the full
// decode's window.
func TestBoxDecodesOnlyTouchedBricks(t *testing.T) {
	g := datasets.Nyx(128, 128, 128, 1001)
	mn, mx := g.Range()
	cfg := DefaultConfig(quant.AbsoluteBound(1e-3, float64(mn), float64(mx)))
	cfg.Workers = 2
	enc, err := Compress(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader[float32](enc)
	if err != nil {
		t.Fatal(err)
	}
	r.Workers = 2
	full, err := r.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	dims := r.chainDims()
	var first *Stats
	for _, z := range []int{16, 48, 80} {
		box := grid.Box{Z0: z, Y0: 37, X0: 70, Z1: z + 32, Y1: 69, X1: 102}
		got, st, err := r.DecompressBox(box)
		if err != nil {
			t.Fatal(err)
		}
		if !sameGrid(got, full.ExtractBox(box)) {
			t.Fatalf("z %d: box differs from the full decode", z)
		}
		// Level 3 rebuilds the box, level 2 its cone.
		cone := neededCoarse(box, dims[1][0], dims[1][1], dims[1][2])
		for p, view := range []grid.Box{cone, box} {
			n, sym := touchedBricks(dims[1-p], []grid.Box{view})
			if st.DecodedSymbols[p] != sym || st.DecodedChunks[p] != n {
				t.Errorf("z %d level %d: decoded %d symbols in %d bricks, the touched bricks hold %d in %d",
					z, p+2, st.DecodedSymbols[p], st.DecodedChunks[p], sym, n)
			}
		}
		if first == nil {
			first = st
			if f := float64(st.DecodedSymbols[1]) / float64(st.TotalSymbols[1]); f > 0.10 {
				t.Errorf("z %d: a 32³ box decoded %.1f%% of the finest level", z, 100*f)
			}
		} else if st.DecodedSymbols != first.DecodedSymbols {
			t.Errorf("z %d: decoded %v symbols, at z 16 %v", z, st.DecodedSymbols, first.DecodedSymbols)
		}
	}
}

// brickSection is class c (0..6) of the finest level of a walker case: the
// archive, the section's index and bytes, its brick count, and where the
// directory's lane lengths and escape counts (−1: the class has none)
// start in it.
type brickSection struct {
	enc        []byte
	idx        int
	sec        []byte
	nb         int
	lens, escs int
}

func finestBrickSection(tb testing.TB, name string, c int) brickSection {
	tb.Helper()
	for _, wc := range walkerCases() {
		if wc.name != name {
			continue
		}
		enc := wc.encode(tb)
		r, err := NewReader[float64](enc)
		if err != nil {
			tb.Fatal(err)
		}
		p := wc.cfg.Levels - 2
		bz, by, bx := classDims(predictedClasses()[c], wc.nz, wc.ny, wc.nx)
		bs := brickSection{enc: enc, idx: r.classSection(p, c), nb: newBricks([3]int{bz, by, bx}).count(), escs: -1}
		bs.sec = section(tb, enc, bs.idx)
		q := quant.Quantizer{EB: r.levelEB(p + 2), Radius: r.hdr.Radius}
		_, headLen, err := huffman.HeaderLen(bs.sec[4:], q.Alphabet())
		if err != nil {
			tb.Fatal(err)
		}
		bs.lens = 4 + headLen
		if binary.LittleEndian.Uint32(bs.sec) > 0 {
			bs.escs = bs.lens + 2*bs.nb
		}
		return bs
	}
	tb.Fatalf("no walker case %s", name)
	return brickSection{}
}

// with returns the archive with the section replaced by mut's edit of a
// copy of it.
func (bs brickSection) with(tb testing.TB, mut func(sec []byte) []byte) []byte {
	sec := mut(append([]byte(nil), bs.sec...))
	return withSections(tb, bs.enc, map[int][]byte{bs.idx: sec})
}

func addU16(sec []byte, off, d int) {
	binary.LittleEndian.PutUint16(sec[off:], uint16(int(binary.LittleEndian.Uint16(sec[off:]))+d))
}

// TestBrickDirectoryRejected: each check of a version-4 class section's
// directory fails a full decode with its own typed error, the laned
// section's (huffman.OpenSection) — a section cut inside the directory,
// lanes that do not fill the section, escape counts that do not add up (in
// sum, or brick by brick), a lane with bytes past its brick's symbols, and
// a code count that is not the class grid's (the coarser level's section
// in the finest's place).
func TestBrickDirectoryRejected(t *testing.T) {
	bs := finestBrickSection(t, "L3-f64-outliers", 0)
	if bs.escs < 0 || bs.nb < 3 {
		t.Fatalf("class has %d bricks, escape directory at %d: want ≥ 3 bricks with escapes", bs.nb, bs.escs)
	}
	last := bs.lens + 2*(bs.nb-1)
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"cut in the lane lengths", func(s []byte) []byte { return s[:bs.lens+1] }, huffman.ErrLaneDir},
		{"cut in the escape counts", func(s []byte) []byte { return s[:bs.escs+2*bs.nb-1] }, huffman.ErrLaneDir},
		{"lane longer than the section", func(s []byte) []byte { addU16(s, bs.lens, 1); return s }, huffman.ErrLaneBounds},
		{"lane shorter than the section", func(s []byte) []byte { addU16(s, last, -1); return s }, huffman.ErrLaneBounds},
		{"lane past the section's end", func(s []byte) []byte { addU16(s, bs.lens, 0x8000); return s }, huffman.ErrLaneBounds},
		{"escape counts sum high", func(s []byte) []byte { addU16(s, bs.escs, 1); return s }, huffman.ErrEscapeCount},
		{"escape counts sum low", func(s []byte) []byte { addU16(s, bs.escs+2, -1); return s }, huffman.ErrEscapeCount},
		{"escape moved between bricks", func(s []byte) []byte {
			addU16(s, bs.escs, 1)
			addU16(s, bs.escs+2, -1)
			return s
		}, huffman.ErrEscapeCount},
		{"outlier count beyond the section", func(s []byte) []byte {
			binary.LittleEndian.PutUint32(s, 1<<31)
			return s
		}, huffman.ErrEscapeCount},
		{"last lane one byte long", func(s []byte) []byte { addU16(s, last, 1); return append(s, 0) }, huffman.ErrLaneLong},
		{"code count off the grid", func([]byte) []byte { return section(t, bs.enc, bs.idx-7) }, huffman.ErrCodeCount},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewReader[float64](bs.with(t, tc.mut))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Decompress(); !errors.Is(err, tc.want) {
				t.Fatalf("err %v, want %v", err, tc.want)
			}
		})
	}
}

// brickDirSeeds are FuzzReader's version-4 directory seeds: the finest
// level's first class section of the outlier case, cut one byte before, at
// and after every directory entry, and with every entry corrupted.
func brickDirSeeds(tb testing.TB) [][]byte {
	bs := finestBrickSection(tb, "L3-f64-outliers", 0)
	var seeds [][]byte
	entries := bs.nb
	if bs.escs >= 0 {
		entries *= 2
	}
	for e := 0; e <= entries; e++ {
		for d := -1; d <= 1; d++ {
			cut := bs.lens + 2*e + d
			seeds = append(seeds, bs.with(tb, func(s []byte) []byte { return s[:cut] }))
		}
	}
	for e := 0; e < entries; e++ {
		for _, v := range []int{1, -1, 0x7fff} {
			off := bs.lens + 2*e
			seeds = append(seeds, bs.with(tb, func(s []byte) []byte { addU16(s, off, v); return s }))
		}
	}
	return seeds
}
