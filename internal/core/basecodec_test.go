package core

import (
	"math"
	"testing"

	"stz/internal/codec"
	"stz/internal/container"
	"stz/internal/datasets"
)

// TestBaseCodecRouting compresses with each registry codec as the level-1
// substrate and checks the header records it and the bound still holds.
func TestBaseCodecRouting(t *testing.T) {
	g := datasets.Nyx(16, 16, 16, 11)
	const eb = 0.05
	for _, name := range codec.Names() {
		if name == "stz" {
			continue // the hierarchy is not its own base level; see TestBaseCodecUnknownRejected
		}
		cfg := DefaultConfig(eb)
		cfg.BaseCodec = name
		enc, err := Compress(g, cfg)
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		r, err := NewReader[float32](enc)
		if err != nil {
			t.Fatalf("%s: reader: %v", name, err)
		}
		if got := r.Header().BaseCodec; got != name {
			t.Errorf("header base codec %q, want %q", got, name)
		}
		dec, err := r.Decompress()
		if err != nil {
			t.Fatalf("%s: decompress: %v", name, err)
		}
		var worst float64
		for i := range g.Data {
			if e := math.Abs(float64(g.Data[i]) - float64(dec.Data[i])); e > worst {
				worst = e
			}
		}
		if worst > eb*(1+1e-12) {
			t.Errorf("%s: max error %g exceeds bound %g", name, worst, eb)
		}
	}
}

func TestBaseCodecUnknownRejected(t *testing.T) {
	g := datasets.Nyx(8, 8, 8, 1)
	cfg := DefaultConfig(0.1)
	cfg.BaseCodec = "gzip"
	if _, err := Compress(g, cfg); err == nil {
		t.Error("unknown base codec accepted")
	}
	// The codec's own name resolves in the registry, and must not: a base
	// level that is itself a hierarchy has nothing to bottom out in.
	cfg.BaseCodec = "stz"
	if _, err := Compress(g, cfg); err == nil {
		t.Error("stz accepted as its own base codec")
	}
	enc, err := Compress(g, DefaultConfig(0.1))
	if err != nil {
		t.Fatal(err)
	}
	for depth, bad := range selfBased(t, enc) {
		if _, err := NewReader[float32](bad); err == nil {
			t.Errorf("header with base ID %d accepted at nesting depth %d", codec.IDSTZ, depth+1)
		}
	}
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
