package integration

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stz/internal/codec"
	"stz/internal/container"
	"stz/internal/core"
	"stz/internal/grid"
	"stz/internal/mgard"
	"stz/internal/sperr"
	"stz/internal/sz3"
	"stz/internal/zfp"
)

// The testdata corpus was generated before the multi-lane Huffman payload
// (format v2) landed: every archive carries the v1 entropy layout, and the
// matching .out file records the grid the v1 decoder reconstructed from
// it. Today's readers must keep decoding those archives byte-identically —
// this is the backward-compatibility gate for all format-touching changes.
// The corpus is immutable: current encoders can no longer produce v1
// archives, so these files must never be regenerated.
//
// core_v3 joined it when the core stream moved to version 4 (brick lanes):
// a 40×36×48 spiked field, default config, written by the last version-3
// writer — four-lane class streams over 8 640 codes with outliers, so the
// reader's lane-prefix decode and its placement of an unchunked class's
// outliers stay tested once nothing writes them.
//
// sz3_v2 joined it when sz3's serial stream moved to version 3 (brick
// lanes): a 24×40×36 Nyx field with a spike every 97th point, written by
// the last version-2 writer — four Huffman lanes over the traversal-ordered
// codes, with 31 escapes — so the v2 reader's lane decode and traversal
// outlier cursor stay tested once nothing writes them.

// corpusDims are the dims of each corpus grid: 20×24×28 unless listed.
var corpusDims = map[string][3]int{"core_v3": {40, 36, 48}, "sz3_v2": {24, 40, 36}}

func dimsOf(name string) [3]int {
	if d, ok := corpusDims[name]; ok {
		return d
	}
	return [3]int{20, 24, 28}
}

func readCorpus(t *testing.T, name string) (archive []byte, want []float32) {
	t.Helper()
	archive, err := os.ReadFile(filepath.Join("testdata", name+".bin"))
	if err != nil {
		t.Fatalf("corpus archive: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join("testdata", name+".out"))
	if err != nil {
		t.Fatalf("corpus expected output: %v", err)
	}
	if len(raw)%4 != 0 {
		t.Fatalf("corpus %s.out: %d bytes is not a float32 array", name, len(raw))
	}
	want = make([]float32, len(raw)/4)
	for i := range want {
		want[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return archive, want
}

func checkGrid(t *testing.T, name string, g *grid.Grid[float32], want []float32) {
	t.Helper()
	if d := dimsOf(name); g.Nz != d[0] || g.Ny != d[1] || g.Nx != d[2] {
		t.Fatalf("%s: dims %dx%dx%d, want %dx%dx%d", name, g.Nz, g.Ny, g.Nx, d[0], d[1], d[2])
	}
	if len(g.Data) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(g.Data), len(want))
	}
	for i, v := range g.Data {
		// Byte-identity, not tolerance: the decode path must be bit-stable.
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Fatalf("%s: value %d = %g, pinned corpus has %g", name, i, v, want[i])
		}
	}
}

func TestPinnedV1Corpus(t *testing.T) {
	coreAt := func(b []byte, workers int) (*grid.Grid[float32], error) {
		r, err := core.NewReader[float32](b)
		if err != nil {
			return nil, err
		}
		r.Workers = workers
		return r.Decompress()
	}
	cases := []struct {
		name   string
		decode func(b []byte, workers int) (*grid.Grid[float32], error)
	}{
		{"sz3_serial", func(b []byte, _ int) (*grid.Grid[float32], error) { return sz3.Decompress[float32](b) }},
		{"sz3_chunked", func(b []byte, _ int) (*grid.Grid[float32], error) { return sz3.Decompress[float32](b) }},
		{"sz3_v2", func(b []byte, _ int) (*grid.Grid[float32], error) { return sz3.Decompress[float32](b) }},
		{"core", coreAt},
		{"core_codechunk", coreAt},
		{"core_v3", coreAt},
		{"codec_sz3", func(b []byte, _ int) (*grid.Grid[float32], error) { return codec.Decode[float32](b, 2) }},
		{"sperr", func(b []byte, _ int) (*grid.Grid[float32], error) { return sperr.Decompress[float32](b) }},
		{"zfp", func(b []byte, _ int) (*grid.Grid[float32], error) { return zfp.Decompress[float32](b) }},
		{"mgard", func(b []byte, _ int) (*grid.Grid[float32], error) { return mgard.Decompress[float32](b) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			archive, want := readCorpus(t, tc.name)
			for _, w := range corpusWorkers(tc.name) {
				g, err := tc.decode(archive, w)
				if err != nil {
					t.Fatalf("decode pinned v1 archive, workers %d: %v", w, err)
				}
				checkGrid(t, tc.name, g, want)
			}
		})
	}
}

// corpusWorkers lists the worker counts a corpus archive decodes at: a core
// stream also in a decode pool of 4, so its legacy class decodes — outlier
// placement included — run beside one another; the other codecs' rows take
// no worker count.
func corpusWorkers(name string) []int {
	if strings.HasPrefix(name, "core") {
		return []int{1, 4}
	}
	return []int{1}
}

// TestRandomAccessPinnedCorpus locks the random-access decode paths
// byte-exact against the pinned corpus: extracting a sub-box from a
// corpus archive must reproduce the corresponding window of the pinned
// full reconstruction, through every box-capable reader. A future PR that
// perturbs any box path (codec.ReaderAt, sz3.DecompressBox,
// core.Reader.DecompressBox) breaks this immediately.
func TestRandomAccessPinnedCorpus(t *testing.T) {
	// Interior box with odd offsets; plus a corner voxel and a full box —
	// and on core_v3, whose classes have four lanes a quarter of their
	// z-range each, a box inside each of lanes 1, 2 and 3.
	boxesOf := func(name string) []grid.Box {
		d := dimsOf(name)
		boxes := []grid.Box{
			{Z0: 3, Y0: 5, X0: 7, Z1: 17, Y1: 19, X1: 23},
			{Z0: d[0] - 1, Y0: d[1] - 1, X0: d[2] - 1, Z1: d[0], Y1: d[1], X1: d[2]},
			{Z1: d[0], Y1: d[1], X1: d[2]},
		}
		if name == "core_v3" {
			for k := 1; k < 4; k++ {
				z := k*d[0]/4 + 2
				boxes = append(boxes, grid.Box{Z0: z, Y0: 9, X0: 11, Z1: z + 5, Y1: 30, X1: 40})
			}
		}
		return boxes
	}
	coreBox := func(b []byte, bx grid.Box, workers int) (*grid.Grid[float32], error) {
		r, err := core.NewReader[float32](b)
		if err != nil {
			return nil, err
		}
		r.Workers = workers
		g, _, err := r.DecompressBox(bx)
		return g, err
	}
	cases := []struct {
		name   string
		decode func(b []byte, bx grid.Box, workers int) (*grid.Grid[float32], error)
	}{
		{"core", coreBox},
		{"core_codechunk", coreBox},
		{"core_v3", coreBox},
		{"codec_sz3", func(b []byte, bx grid.Box, _ int) (*grid.Grid[float32], error) {
			r, err := codec.OpenReaderAt[float32](b)
			if err != nil {
				return nil, err
			}
			return r.DecompressBox(bx)
		}},
		{"sz3_serial", func(b []byte, bx grid.Box, _ int) (*grid.Grid[float32], error) {
			return sz3.DecompressBox[float32](b, bx, 2)
		}},
		{"sz3_chunked", func(b []byte, bx grid.Box, _ int) (*grid.Grid[float32], error) {
			return sz3.DecompressBox[float32](b, bx, 2)
		}},
		{"sz3_v2", func(b []byte, bx grid.Box, _ int) (*grid.Grid[float32], error) {
			return sz3.DecompressBox[float32](b, bx, 2)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			archive, want := readCorpus(t, tc.name)
			d := dimsOf(tc.name)
			pinned, err := grid.FromData(want, d[0], d[1], d[2])
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range corpusWorkers(tc.name) {
				for _, bx := range boxesOf(tc.name) {
					g, err := tc.decode(archive, bx, w)
					if err != nil {
						t.Fatalf("box %+v, workers %d: %v", bx, w, err)
					}
					wantWin := pinned.ExtractBox(bx)
					if g.Nz != wantWin.Nz || g.Ny != wantWin.Ny || g.Nx != wantWin.Nx {
						t.Fatalf("box %+v, workers %d: dims %dx%dx%d", bx, w, g.Nz, g.Ny, g.Nx)
					}
					for i, v := range g.Data {
						if math.Float32bits(v) != math.Float32bits(wantWin.Data[i]) {
							t.Fatalf("box %+v, workers %d: value %d = %g, pinned corpus window has %g",
								bx, w, i, v, wantWin.Data[i])
						}
					}
				}
			}
		})
	}
}

// TestPinnedCorpusMagics pins the format markers of the corpus so an
// accidental regeneration with v2 writers (which would silently gut the
// backward-compat coverage) is caught immediately.
func TestPinnedCorpusMagics(t *testing.T) {
	sz3Serial, _ := readCorpus(t, "sz3_serial")
	if got := binary.LittleEndian.Uint32(sz3Serial); got != sz3.Magic {
		t.Fatalf("sz3_serial corpus magic %#x, want v1 %#x", got, sz3.Magic)
	}
	sz3V2, _ := readCorpus(t, "sz3_v2")
	if got := binary.LittleEndian.Uint32(sz3V2); got != sz3.MagicV2 {
		t.Fatalf("sz3_v2 corpus magic %#x, want v2 %#x", got, sz3.MagicV2)
	}
	sperrBlob, _ := readCorpus(t, "sperr")
	if got := binary.LittleEndian.Uint32(sperrBlob); got != sperr.Magic {
		t.Fatalf("sperr corpus magic %#x, want v1 %#x", got, sperr.Magic)
	}
	// The core header's first byte is its version.
	v3, _ := readCorpus(t, "core_v3")
	arc, err := container.Open(v3)
	if err != nil {
		t.Fatal(err)
	}
	if hdr, err := arc.Section(0); err != nil || hdr[0] != 3 {
		t.Fatalf("core_v3 corpus header version %v (err %v), want 3", hdr[:1], err)
	}
}
