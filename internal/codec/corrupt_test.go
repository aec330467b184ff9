package codec_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"stz/internal/codec"
	"stz/internal/container"
	_ "stz/internal/core" // registers "stz"
	"stz/internal/datasets"
	"stz/internal/huffman"
	"stz/internal/sz3"
)

// decodeAllPaths runs every untrusted-input entry point on data and
// reports whether any of them succeeded. None may panic.
func decodeAllPaths(data []byte) bool {
	ok := false
	if _, err := codec.ParseHeader(data); err == nil {
		ok = true
	}
	if _, err := codec.Decode[float32](data, 2); err == nil {
		ok = true
	}
	if _, err := codec.Decode[float64](data, 1); err == nil {
		ok = true
	}
	if sr, err := codec.NewReader[float32](bytes.NewReader(data)); err == nil {
		if _, err := sr.ReadGrid(); err == nil {
			ok = true
		}
	}
	if sr, err := codec.NewReader[float64](bytes.NewReader(data)); err == nil {
		if _, err := sr.ReadGrid(); err == nil {
			ok = true
		}
	}
	return ok
}

// validArchives returns one serial and one chunked archive of sz3 and of
// stz, whose payload sections are whole archives of their own.
func validArchives(t testing.TB) [][]byte {
	g32 := datasets.Nyx(16, 8, 8, 2)
	var out [][]byte
	for _, name := range []string{"sz3", "stz"} {
		for _, cfg := range []codec.Config{{EB: 0.05}, {EB: 0.05, Workers: 2, Chunks: 2}} {
			enc, err := codec.Encode(name, g32, cfg)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, enc)
		}
	}
	return out
}

func TestTruncatedArchivesNeverPanic(t *testing.T) {
	for _, enc := range validArchives(t) {
		if !decodeAllPaths(enc) {
			t.Fatal("valid archive rejected")
		}
		// Every proper prefix must fail with an error, never a panic and
		// never a silent success.
		for cut := 0; cut < len(enc); cut++ {
			prefix := enc[:cut]
			if _, err := codec.ParseHeader(prefix); err == nil {
				t.Fatalf("ParseHeader accepted a %d/%d-byte prefix", cut, len(enc))
			}
			if _, err := codec.Decode[float32](prefix, 1); err == nil {
				t.Fatalf("Decode accepted a %d/%d-byte prefix", cut, len(enc))
			}
			if sr, err := codec.NewReader[float32](bytes.NewReader(prefix)); err == nil {
				if _, err := sr.ReadGrid(); err == nil {
					t.Fatalf("streaming read accepted a %d/%d-byte prefix", cut, len(enc))
				}
			}
		}
	}
}

// rewriteHeader re-frames an archive with its section-0 header bytes
// transformed by mutate, leaving the slab sections untouched.
func rewriteHeader(t *testing.T, enc []byte, mutate func(h []byte)) []byte {
	t.Helper()
	arc, err := container.Open(enc)
	if err != nil {
		t.Fatal(err)
	}
	var b container.Builder
	for i := 0; i < arc.Count(); i++ {
		sec, err := arc.Section(i)
		if err != nil {
			t.Fatal(err)
		}
		sec = append([]byte(nil), sec...)
		if i == 0 {
			mutate(sec)
		}
		b.Add(sec)
	}
	return b.Bytes()
}

func TestMalformedChunkBoundsRejected(t *testing.T) {
	g := datasets.Nyx(16, 8, 8, 2)
	enc, err := codec.Encode("sz3", g, codec.Config{EB: 0.05, Workers: 2, Chunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := codec.ParseHeader(enc)
	if err != nil || hdr.Chunks() != 2 {
		t.Fatalf("setup: %+v err %v", hdr, err)
	}
	// Bounds live at header offset 40 as little-endian uint32s: [0, 8, 16].
	setBound := func(i int, v uint32) func([]byte) {
		return func(h []byte) { binary.LittleEndian.PutUint32(h[40+4*i:], v) }
	}
	cases := []struct {
		name   string
		mutate func([]byte)
	}{
		{"reversed", setBound(1, 20)},              // [0, 20, 16]: decreasing
		{"empty-chunk", setBound(1, 0)},            // [0, 0, 16]: zero-depth slab
		{"overlap-last", setBound(1, 16)},          // [0, 16, 16]: empty tail slab
		{"uncovered-start", setBound(0, 1)},        // [1, 8, 16]
		{"uncovered-end", setBound(2, 15)},         // [0, 8, 15]
		{"out-of-range", setBound(2, 1<<30)},       // far beyond Nz
		{"chunk-count-overflow", setBound(-1, 99)}, // nChunks at offset 36
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := rewriteHeader(t, enc, tc.mutate)
			if _, err := codec.ParseHeader(bad); err == nil {
				t.Error("ParseHeader accepted malformed chunk bounds")
			}
			if _, err := codec.Decode[float32](bad, 2); err == nil {
				t.Error("Decode accepted malformed chunk bounds")
			}
			if _, err := codec.NewReader[float32](bytes.NewReader(bad)); err == nil {
				t.Error("NewReader accepted malformed chunk bounds")
			}
		})
	}
}

func TestOverflowingDimsRejected(t *testing.T) {
	g := datasets.Nyx(16, 8, 8, 2)
	enc, err := codec.Encode("sz3", g, codec.Config{EB: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Nz=2²², Ny=Nx=2²¹: the element count is 2⁶⁴, which wraps to 0 in a
	// naive int64 product and would pass a plain `> 2³³` check, driving
	// makeslice/slice panics downstream. CheckDims must reject it.
	cases := map[string][3]uint32{
		"wrap-to-zero":  {1 << 22, 1 << 21, 1 << 21},
		"wrap-negative": {1 << 31, 1 << 31, 1 << 2},
		"zero-dim":      {16, 0, 8},
		"too-large":     {1 << 30, 1 << 4, 1},
	}
	for name, dims := range cases {
		t.Run(name, func(t *testing.T) {
			bad := rewriteHeader(t, enc, func(h []byte) {
				binary.LittleEndian.PutUint32(h[8:], dims[0])
				binary.LittleEndian.PutUint32(h[12:], dims[1])
				binary.LittleEndian.PutUint32(h[16:], dims[2])
			})
			if _, err := codec.ParseHeader(bad); err == nil {
				t.Error("ParseHeader accepted overflowing dims")
			}
			if _, err := codec.Decode[float32](bad, 1); err == nil {
				t.Error("Decode accepted overflowing dims")
			}
			if _, err := codec.NewReader[float32](bytes.NewReader(bad)); err == nil {
				t.Error("NewReader accepted overflowing dims")
			}
		})
	}
	// CheckDims directly: valid dims pass with the right count.
	if n, err := codec.CheckDims(16, 8, 8); err != nil || n != 1024 {
		t.Fatalf("codec.CheckDims(16,8,8) = %d, %v", n, err)
	}
	if _, err := codec.CheckDims(1<<22, 1<<21, 1<<21); err == nil {
		t.Fatal("CheckDims accepted a wrapping product")
	}
}

func TestOversizedSectionLengthRejectedByReader(t *testing.T) {
	g := datasets.Nyx(16, 8, 8, 2)
	enc, err := codec.Encode("sz3", g, codec.Config{EB: 0.05, Chunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Claim a ludicrous length for slab section 1 in the directory and
	// recompute the directory CRC so only the streaming allocation guard
	// can catch it.
	bad := append([]byte(nil), enc...)
	binary.LittleEndian.PutUint64(bad[8+8*1:], 1<<40)
	binary.LittleEndian.PutUint32(bad[8+8*3:], crc32.ChecksumIEEE(bad[:8+8*3]))
	sr, err := codec.NewReader[float32](bytes.NewReader(bad))
	if err == nil {
		_, err = sr.ReadGrid()
	}
	if err == nil {
		t.Fatal("directory claiming a 1 TiB section accepted by streaming reader")
	}
}

func FuzzDecode(f *testing.F) {
	for _, enc := range validArchives(f) {
		f.Add(enc)
		for _, cut := range []int{0, 4, 11, 12, 40, 60, len(enc) / 2, len(enc) - 1} {
			if cut <= len(enc) {
				f.Add(append([]byte(nil), enc[:cut]...))
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte("STZC garbage that is not a container at all"))
	for _, seed := range sz3LaneSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// No input may panic any decode path; success is only legitimate
		// when the archive actually parses end to end.
		decodeAllPaths(data)
	})
}

// sz3LaneSeeds are FuzzDecode seeds that reach an sz3 v3 payload's lane
// directory through the container: a one-chunk sz3 archive cut one byte
// before, at and after every directory entry, and the archive with each
// entry corrupted. The directory follows the payload's code header and
// holds a u16 length per lane — one lane per 8h×16h×32h brick of every
// interpolation level's lattice — then, when the payload has escapes, a u16
// escape count per lane (FORMAT.md §4).
func sz3LaneSeeds(tb testing.TB) [][]byte {
	g := datasets.Nyx(24, 20, 40, 3)
	g.Data[100] *= 1e9 // an escape, so the directory has both halves
	enc, err := codec.Encode("sz3", g, codec.Config{EB: 0.05, Chunks: 1})
	if err != nil {
		tb.Fatal(err)
	}
	arc, err := container.Open(enc)
	if err != nil {
		tb.Fatal(err)
	}
	sec, err := arc.Section(1)
	if err != nil {
		tb.Fatal(err)
	}
	if binary.LittleEndian.Uint32(sec) != sz3.MagicV3 || binary.LittleEndian.Uint32(sec[32:]) == 0 {
		tb.Fatal("seed payload is not a v3 sz3 stream with escapes")
	}
	hoff := len(sec) - int(binary.LittleEndian.Uint32(sec[36:]))
	_, headLen, err := huffman.HeaderLen(sec[hoff:], 2*int(binary.LittleEndian.Uint32(sec[28:])))
	if err != nil {
		tb.Fatal(err)
	}
	lanes, s := 0, 2
	for s < 40-1 {
		s <<= 1
	}
	for ceil := func(n, d int) int { return (n + d - 1) / d }; s >= 2; s >>= 1 {
		h := s / 2
		lanes += ceil(24, 8*h) * ceil(20, 16*h) * ceil(40, 32*h)
	}
	dir := bytes.Index(enc, sec) + hoff + headLen
	var seeds [][]byte
	for e := 0; e < 2*lanes; e++ {
		for _, cut := range []int{dir + 2*e - 1, dir + 2*e, dir + 2*e + 1} {
			seeds = append(seeds, append([]byte(nil), enc[:cut]...))
		}
		bad := append([]byte(nil), enc...)
		bad[dir+2*e] ^= 0x5a
		seeds = append(seeds, bad)
	}
	return seeds
}
