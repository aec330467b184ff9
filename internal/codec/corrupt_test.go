package codec_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"stz/internal/codec"
	"stz/internal/container"
	_ "stz/internal/core" // registers "stz"
	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/huffman"
	"stz/internal/sz3"
	"stz/internal/zfp"
)

// TestDecodeRejectsWrongType holds every registered codec to its element
// type in both directions and at both checks: Decode refuses on the SZXC
// header's tag before any payload is read, and Decompress of the raw
// payload on the backend's own, while the matching type decodes the same
// payload.
func TestDecodeRejectsWrongType(t *testing.T) {
	g32 := datasets.Nyx(8, 8, 8, 1)
	g64 := grid.ToFloat64(g32)
	refused := func(what string, err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", what, err, want)
		}
	}
	const header = "codec: stream element type mismatch"
	for _, tc := range []struct{ name, payload string }{
		{"sz3", "sz3: malformed stream: element type mismatch"},
		{"zfp", "zfp: malformed stream: element type mismatch"},
		{"sperr", "sperr: malformed stream: element type mismatch"},
		{"mgard", "mgard: malformed stream: element type mismatch"},
		{"stz", "core: stream element type mismatch"},
	} {
		c := codec.MustLookup(tc.name)
		enc32, err := codec.Encode(tc.name, g32, codec.Config{EB: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		enc64, err := codec.Encode(tc.name, g64, codec.Config{EB: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		raw32, raw64 := section(t, enc32, 1), section(t, enc64, 1)
		if _, err := codec.Decompress[float32](c, raw32, 1); err != nil {
			t.Errorf("%s: float32 payload: %v", tc.name, err)
		}
		if _, err := codec.Decompress[float64](c, raw64, 1); err != nil {
			t.Errorf("%s: float64 payload: %v", tc.name, err)
		}
		_, err = codec.Decode[float64](enc32, 1)
		refused(tc.name+": Decode[float64] of a float32 archive", err, header)
		_, err = codec.Decode[float32](enc64, 1)
		refused(tc.name+": Decode[float32] of a float64 archive", err, header)
		_, err = codec.Decompress[float64](c, raw32, 1)
		refused(tc.name+": Decompress[float64] of a float32 payload", err, tc.payload)
		_, err = codec.Decompress[float32](c, raw64, 1)
		refused(tc.name+": Decompress[float32] of a float64 payload", err, tc.payload)
	}
}

// decodeAllPaths runs every untrusted-input entry point on data and
// reports whether any of them succeeded. None may panic, and the full
// decodes that succeed on the same bytes must agree bit for bit.
func decodeAllPaths(t testing.TB, data []byte) bool {
	_, err := codec.ParseHeader(data)
	ok := err == nil
	ok = decodesAgree[float32](t, data, 2) || ok
	return decodesAgree[float64](t, data, 1) || ok
}

// decodesAgree decodes data as T through Decode, Reader.ReadGrid and
// Reader.WriteTo and fails t when two that succeed differ. It reports
// whether any succeeded.
func decodesAgree[T grid.Float](t testing.TB, data []byte, workers int) bool {
	var paths []string
	var outs [][]byte
	if g, err := codec.Decode[T](data, workers); err == nil {
		paths, outs = append(paths, "Decode"), append(outs, leBytes(g.Data))
	}
	if sr, err := codec.NewReader[T](bytes.NewReader(data)); err == nil {
		sr.Workers = workers
		if g, err := sr.ReadGrid(); err == nil {
			paths, outs = append(paths, "Reader.ReadGrid"), append(outs, leBytes(g.Data))
		}
	}
	if sr, err := codec.NewReader[T](bytes.NewReader(data)); err == nil {
		sr.Workers = workers
		var raw bytes.Buffer
		if _, err := sr.WriteTo(&raw); err == nil {
			paths, outs = append(paths, "Reader.WriteTo"), append(outs, raw.Bytes())
		}
	}
	for i := 1; i < len(outs); i++ {
		if !bytes.Equal(outs[0], outs[i]) {
			t.Fatalf("%s and %s decode the same %d bytes differently", paths[0], paths[i], len(data))
		}
	}
	return len(outs) > 0
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
		if !decodeAllPaths(t, enc) {
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
// replaced by what mutate returns for a copy of them, leaving the slab
// sections untouched.
func rewriteHeader(t *testing.T, enc []byte, mutate func(h []byte) []byte) []byte {
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
			sec = mutate(sec)
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
	setBound := func(i int, v uint32) func([]byte) []byte {
		return func(h []byte) []byte {
			binary.LittleEndian.PutUint32(h[40+4*i:], v)
			return h
		}
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"reversed", setBound(1, 20)},              // [0, 20, 16]: decreasing
		{"empty-chunk", setBound(1, 0)},            // [0, 0, 16]: zero-depth slab
		{"overlap-last", setBound(1, 16)},          // [0, 16, 16]: empty tail slab
		{"uncovered-start", setBound(0, 1)},        // [1, 8, 16]
		{"uncovered-end", setBound(2, 15)},         // [0, 8, 15]
		{"out-of-range", setBound(2, 1<<30)},       // far beyond Nz
		{"chunk-count-overflow", setBound(-1, 99)}, // nChunks at offset 36
		// Section 0 is exactly 40 + 4·(chunks+1) bytes; a tail would make
		// two byte strings the same archive.
		{"trailing-bytes", func(h []byte) []byte { return append(h, 0, 0, 0, 0) }},
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
			if _, err := codec.OpenReaderAt[float32](bad); err == nil {
				t.Error("OpenReaderAt accepted malformed chunk bounds")
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
			bad := rewriteHeader(t, enc, func(h []byte) []byte {
				binary.LittleEndian.PutUint32(h[8:], dims[0])
				binary.LittleEndian.PutUint32(h[12:], dims[1])
				binary.LittleEndian.PutUint32(h[16:], dims[2])
				return h
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
	f.Add(zfpBaseSeed(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		// No input may panic any decode path; success is only legitimate
		// when the archive actually parses end to end.
		decodeAllPaths(t, data)
	})
}

// zfpBaseSeed is a FuzzDecode seed: a one-chunk stz archive whose payload
// has a genuine zfp stream of the level-1 grid (the default hierarchy's g
// at stride 4) as its section 1 and zfp's ID as its header's base byte. The
// stz reader refuses any base but sz3.
func zfpBaseSeed(tb testing.TB) []byte {
	g := datasets.Nyx(16, 8, 8, 2)
	enc, err := codec.Encode("stz", g, codec.Config{EB: 0.05, Chunks: 1})
	if err != nil {
		tb.Fatal(err)
	}
	l1 := g.ExtractStride(grid.Offset3{}, 4)
	zsec, err := zfp.Compress(l1, zfp.Options{Tolerance: 0.05})
	if err != nil {
		tb.Fatal(err)
	}
	payload := section(tb, enc, 1)
	hdr := append([]byte(nil), section(tb, payload, 0)...)
	hdr[7] = codec.IDZFP
	payload = withSections(tb, payload, map[int][]byte{0: hdr, 1: zsec})
	seed := withSections(tb, enc, map[int][]byte{1: payload})
	if _, err := codec.ParseHeader(seed); err != nil {
		tb.Fatal(err)
	}
	if _, err := codec.Decode[float32](seed, 1); err == nil {
		tb.Fatal("stz archive with a zfp base decoded")
	}
	return seed
}

// withSections re-frames the container enc with the sections repl names
// replaced.
func withSections(tb testing.TB, enc []byte, repl map[int][]byte) []byte {
	arc, err := container.Open(enc)
	if err != nil {
		tb.Fatal(err)
	}
	var b container.Builder
	for i := 0; i < arc.Count(); i++ {
		sec, ok := repl[i]
		if !ok {
			if sec, err = arc.Section(i); err != nil {
				tb.Fatal(err)
			}
		}
		b.Add(sec)
	}
	return b.Bytes()
}

// section returns section i of the container enc.
func section(tb testing.TB, enc []byte, i int) []byte {
	arc, err := container.Open(enc)
	if err != nil {
		tb.Fatal(err)
	}
	sec, err := arc.Section(i)
	if err != nil {
		tb.Fatal(err)
	}
	return sec
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
