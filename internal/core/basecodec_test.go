package core

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"stz/internal/codec"
	"stz/internal/container"
	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/zfp"
)

// TestBaseCodecRouting: sz3 is the only level-1 base. A valid archive
// stamped with any other base ID — zfp, sperr, mgard, stz itself, or one no
// codec has — is refused with errBaseNotSZ3 by NewReader and, framed as a
// registry archive, by codec.Decode and a codec.ReaderAt box; so is the one
// whose section 1 is a genuine zfp stream of the level-1 grid. Stamped 0,
// the pre-registry value, the archive reads as sz3, bit for bit.
func TestBaseCodecRouting(t *testing.T) {
	g := datasets.Nyx(16, 16, 16, 11)
	framed, err := codec.Encode("stz", g, codec.Config{EB: 0.05, Chunks: 1})
	if err != nil {
		t.Fatal(err)
	}
	enc := section(t, framed, 1)
	bad := map[string][]byte{"zfp stream": zfpBased(t, enc)}
	for _, id := range []byte{codec.IDZFP, codec.IDSPERR, codec.IDMGARD, codec.IDSTZ, 9} {
		bad[fmt.Sprintf("ID %d", id)] = patchHeader(t, enc, func(h []byte) { h[7] = id })
	}
	for name, enc := range bad {
		if _, err := NewReader[float32](enc); !errors.Is(err, errBaseNotSZ3) {
			t.Errorf("%s: NewReader: err %v, want %v", name, err, errBaseNotSZ3)
		}
		arc := withSections(t, framed, map[int][]byte{1: enc})
		if _, err := codec.Decode[float32](arc, 1); !errors.Is(err, errBaseNotSZ3) {
			t.Errorf("%s: codec.Decode: err %v, want %v", name, err, errBaseNotSZ3)
		}
		ra, err := codec.OpenReaderAt[float32](arc)
		if err != nil {
			t.Fatalf("%s: codec.OpenReaderAt: %v", name, err)
		}
		if _, err := ra.DecompressBox(grid.Box{Z1: 4, Y1: 4, X1: 4}); !errors.Is(err, errBaseNotSZ3) {
			t.Errorf("%s: ReaderAt.DecompressBox: err %v, want %v", name, err, errBaseNotSZ3)
		}
	}
	want, err := Decompress[float32](enc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decompress[float32](patchHeader(t, enc, func(h []byte) { h[7] = 0 }))
	if err != nil {
		t.Fatalf("base ID 0: %v", err)
	}
	for i, v := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(v) {
			t.Fatalf("base ID 0: point %d decodes to %v, want %v", i, got.Data[i], v)
		}
	}
}

// TestBaseCodecUnknownRejected: a header that names stz as its own base is
// refused however deep the nesting goes, before any nested archive is
// opened.
func TestBaseCodecUnknownRejected(t *testing.T) {
	enc, err := Compress(datasets.Nyx(8, 8, 8, 1), DefaultConfig(0.1))
	if err != nil {
		t.Fatal(err)
	}
	for depth, bad := range selfBased(t, enc) {
		if _, err := NewReader[float32](bad); !errors.Is(err, errBaseNotSZ3) {
			t.Errorf("nesting depth %d: err %v, want %v", depth+1, err, errBaseNotSZ3)
		}
	}
}

// zfpBased re-frames the float32 archive enc the way a writer with a zfp
// base would have left it: section 1 a genuine zfp stream of the level-1
// grid, the header's base byte zfp's ID.
func zfpBased(tb testing.TB, enc []byte) []byte {
	r, err := NewReader[float32](enc)
	if err != nil {
		tb.Fatal(err)
	}
	d := r.chainDims()[r.hdr.Levels-1]
	sec, err := zfp.Compress(testField[float32](d[0], d[1], d[2], 3), zfp.Options{Tolerance: r.hdr.EB})
	if err != nil {
		tb.Fatal(err)
	}
	return withSections(tb, patchHeader(tb, enc, func(h []byte) { h[7] = codec.IDZFP }), map[int][]byte{1: sec})
}

// selfBased re-frames a valid archive the way a reader without the base-ID
// check would recurse into: the header names stz as its base codec and the
// level-1 section is again such an archive, one and two levels deep.
func selfBased(tb testing.TB, enc []byte) [2][]byte {
	arc, err := container.Open(enc)
	if err != nil {
		tb.Fatal(err)
	}
	hsec, err := arc.Section(0)
	if err != nil {
		tb.Fatal(err)
	}
	hdr := append([]byte(nil), hsec...)
	hdr[7] = codec.IDSTZ
	nest := func(inner []byte) []byte {
		return withSections(tb, enc, map[int][]byte{0: hdr, 1: inner})
	}
	d1 := nest(enc)
	return [2][]byte{d1, nest(d1)}
}

// withSections re-frames the archive enc with the sections repl names
// replaced (the container checksum covers only the directory, so the result
// opens).
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

// section returns section i of the archive enc.
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
