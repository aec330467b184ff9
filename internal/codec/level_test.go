package codec_test

import (
	"testing"

	"stz/internal/codec"
	"stz/internal/core"
	"stz/internal/datasets"
	"stz/internal/grid"
)

// TestRegistryContents: the four baselines register from this package, the
// paper's codec from internal/core (linked into this test binary by the
// import above, as into every program that serves archives).
func TestRegistryContents(t *testing.T) {
	want := []string{"mgard", "sperr", "stz", "sz3", "zfp"}
	got := codec.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
	for _, name := range want {
		c := codec.MustLookup(name)
		if c.Name() != name {
			t.Errorf("%s: Name() = %q", name, c.Name())
		}
		byID, err := codec.LookupID(c.ID())
		if err != nil || byID != c {
			t.Errorf("%s: LookupID(%d) mismatch (err %v)", name, c.ID(), err)
		}
		caps := c.Caps()
		if !caps.Float32 || !caps.Float64 || caps.MaxDims != 3 {
			t.Errorf("%s: unexpected caps %+v", name, caps)
		}
	}
	if _, err := codec.Lookup("nope"); err == nil {
		t.Error("Lookup of unknown codec succeeded")
	}
	if id := codec.MustLookup("stz").ID(); id != codec.IDSTZ {
		t.Errorf("stz registered under ID %d, want %d", id, codec.IDSTZ)
	}
}

// levelDecoder checks DecodeLevel over an automatically planned (hence
// single-slab, whatever the worker count) stz archive against the bare
// core.Reader on the payload, bit for bit at every level.
func levelDecoder[T grid.Float](t *testing.T, g *grid.Grid[T]) {
	t.Helper()
	enc, err := codec.Encode("stz", g, codec.Config{EB: 1e-3, Mode: codec.ModeRel, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ra, err := codec.OpenReaderAt[T](enc)
	if err != nil {
		t.Fatal(err)
	}
	if n := ra.Header().Chunks(); n != 1 {
		t.Fatalf("automatic plan gave a LevelDecoder codec %d slabs", n)
	}
	payload, err := ra.RawSection(0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := core.NewReader[T](payload)
	if err != nil {
		t.Fatal(err)
	}
	for lv := 1; lv <= 3; lv++ {
		want, err := r.Progressive(lv)
		if err != nil {
			t.Fatal(err)
		}
		got, err := codec.DecodeLevel[T](enc, lv, 2)
		if err != nil {
			t.Fatalf("level %d: %v", lv, err)
		}
		sameWindow(t, "level", got, want)
	}
	for _, lv := range []int{0, 4, -1} {
		if _, err := codec.DecodeLevel[T](enc, lv, 1); err == nil {
			t.Errorf("level %d of a 3-level archive accepted", lv)
		}
	}
}

func TestLevelDecoder(t *testing.T) {
	g32 := datasets.Nyx(33, 31, 38, 5)
	levelDecoder(t, g32)
	levelDecoder(t, grid.ToFloat64(g32))

	// The documented refusals: a codec without levels, slabs that each
	// carry their own hierarchy, and the wrong element type.
	for _, tc := range []struct {
		name string
		cfg  codec.Config
	}{
		{"sz3", codec.Config{EB: 1e-2}},
		{"stz", codec.Config{EB: 1e-2, Chunks: 3}},
	} {
		enc, err := codec.Encode(tc.name, g32, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := codec.DecodeLevel[float32](enc, 1, 1); err == nil {
			t.Errorf("%s, %d chunks: level decode accepted", tc.name, tc.cfg.Chunks)
		}
	}
	enc, err := codec.Encode("stz", g32, codec.Config{EB: 1e-2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.DecodeLevel[float64](enc, 1, 1); err == nil {
		t.Error("f64 level decode of an f32 archive accepted")
	}
	if full, err := codec.DecodeLevel[float32](enc, 3, 1); err != nil || full.Len() != g32.Len() {
		t.Errorf("finest level: %v", err)
	}
}
