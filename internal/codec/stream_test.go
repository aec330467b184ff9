package codec

import (
	"bytes"
	"io"
	"testing"

	"stz/internal/datasets"
	"stz/internal/grid"
)

// onlyReader hides any Seek/Bytes methods so the streaming paths are
// exercised against a plain io.Reader.
type onlyReader struct{ r io.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

// streamIdentity asserts the bounded-window Writer emits the exact bytes
// of buffered Encode for the given grid and config.
func streamIdentity[T grid.Float](t *testing.T, g *grid.Grid[T], name string, cfg Config) []byte {
	t.Helper()
	want, err := Encode(name, g, cfg)
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	var buf bytes.Buffer
	abs := cfg
	if cfg.Mode == ModeRel {
		mn, mx := g.Range()
		abs = cfg.Resolve(float64(mn), float64(mx))
	}
	sw, err := NewWriter[T](&buf, name, g.Nz, g.Ny, g.Nx, abs)
	if err == nil {
		err = sw.SetRequestedBound(cfg.EB, cfg.Mode)
	}
	if err == nil {
		err = sw.Write(g.Data)
	}
	if err == nil {
		err = sw.Close()
	}
	if err != nil {
		t.Fatalf("%s: stream encode: %v", name, err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatalf("%s: streamed archive differs from Encode (%d vs %d bytes)",
			name, buf.Len(), len(want))
	}
	return want
}

func TestStreamWriterMatchesEncode(t *testing.T) {
	g32 := datasets.Nyx(32, 12, 14, 3)
	g64 := grid.ToFloat64(g32)
	cases := []struct {
		label string
		cfg   Config
	}{
		{"serial", Config{EB: 0.05}},
		{"chunked", Config{EB: 0.05, Workers: 4, Chunks: 4}},
		{"auto-chunks", Config{EB: 0.05, Workers: 2}},
		{"rel", Config{EB: 1e-3, Mode: ModeRel, Workers: 4, Chunks: 3}},
	}
	for _, name := range Names() {
		for _, tc := range cases {
			t.Run(name+"/"+tc.label, func(t *testing.T) {
				streamIdentity(t, g32, name, tc.cfg)
				streamIdentity(t, g64, name, tc.cfg)
			})
		}
	}
}

func TestStreamWriterSmallWrites(t *testing.T) {
	g := datasets.Miranda(24, 10, 12, 5)
	// One worker makes the window one slab, the tightest memory bound:
	// every slab is flushed as soon as it is complete.
	cfg := Config{EB: 0.02, Workers: 1, Chunks: 3}
	want, err := Encode("sz3", g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw, err := NewWriter[float32](&buf, "sz3", g.Nz, g.Ny, g.Nx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Feed in awkward, non-plane-aligned pieces.
	for lo := 0; lo < len(g.Data); {
		hi := lo + 37
		if hi > len(g.Data) {
			hi = len(g.Data)
		}
		if err := sw.Write(g.Data[lo:hi]); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatal("value-at-a-time streamed archive differs from Encode")
	}
}

func TestStreamReaderRoundTrip(t *testing.T) {
	g := datasets.Nyx(32, 12, 14, 3)
	for _, cfg := range []Config{
		{EB: 0.05},
		{EB: 0.05, Workers: 4, Chunks: 4},
	} {
		for _, name := range Names() {
			enc, err := Encode(name, g, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := Decode[float32](enc, cfg.Workers)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sr, err := NewReader[float32](onlyReader{bytes.NewReader(enc)})
			if err != nil {
				t.Fatalf("%s: stream open: %v", name, err)
			}
			sr.Workers = cfg.Workers
			got, err := sr.ReadGrid()
			if err != nil {
				t.Fatalf("%s: stream decode: %v", name, err)
			}
			if got.Nz != want.Nz || got.Ny != want.Ny || got.Nx != want.Nx {
				t.Fatalf("%s: dims mismatch", name)
			}
			for i := range want.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("%s: streamed decode differs from Decode at %d", name, i)
				}
			}
		}
	}
}

func TestStreamReaderSmallReads(t *testing.T) {
	g := datasets.Nyx(24, 8, 10, 9)
	cfg := Config{EB: 0.05, Workers: 2, Chunks: 3}
	enc, err := Encode("zfp", g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode[float32](enc, 1)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := NewReader[float32](onlyReader{bytes.NewReader(enc)})
	if err != nil {
		t.Fatal(err)
	}
	if h := sr.Header(); h.Nz != g.Nz || h.Chunks() != 3 {
		t.Fatalf("header %+v", h)
	}
	var got []float32
	buf := make([]float32, 41) // deliberately not plane-aligned
	for {
		n, err := sr.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(want.Data) {
		t.Fatalf("read %d values, want %d", len(got), len(want.Data))
	}
	for i := range want.Data {
		if got[i] != want.Data[i] {
			t.Fatalf("streamed value %d differs", i)
		}
	}
	if n, err := sr.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("post-EOF read: n=%d err=%v", n, err)
	}
}

func TestStreamWriterErrors(t *testing.T) {
	g := datasets.Nyx(8, 8, 8, 1)

	if _, err := NewWriter[float32](io.Discard, "nope", 8, 8, 8, Config{EB: 0.1}); err == nil {
		t.Error("unknown codec accepted")
	}
	if _, err := NewWriter[float32](io.Discard, "sz3", 8, 8, 8, Config{EB: 0.1, Mode: ModeRel}); err == nil {
		t.Error("relative bound accepted by streaming writer")
	}
	if _, err := NewWriter[float32](io.Discard, "sz3", 0, 8, 8, Config{EB: 0.1}); err == nil {
		t.Error("empty grid accepted")
	}
	if _, err := NewWriter[float32](io.Discard, "sz3", 8, 8, 8, Config{EB: 0}); err == nil {
		t.Error("zero bound accepted")
	}

	// Short input must fail at Close.
	sw, err := NewWriter[float32](io.Discard, "sz3", 8, 8, 8, Config{EB: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Write(g.Data[:100]); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err == nil {
		t.Error("short stream accepted at Close")
	}
	if err := sw.Write(g.Data); err == nil {
		t.Error("write after Close accepted")
	}

	// Overfull input must fail at Write.
	sw2, err := NewWriter[float32](io.Discard, "sz3", 8, 8, 8, Config{EB: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw2.Write(g.Data); err != nil {
		t.Fatal(err)
	}
	if err := sw2.Write(g.Data[:1]); err == nil {
		t.Error("overfull stream accepted")
	}

	// SetRequestedBound is rejected once writing has begun.
	sw3, err := NewWriter[float32](io.Discard, "sz3", 8, 8, 8, Config{EB: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw3.Write(g.Data[:1]); err != nil {
		t.Fatal(err)
	}
	if err := sw3.SetRequestedBound(1e-3, ModeRel); err == nil {
		t.Error("SetRequestedBound after Write accepted")
	}
}

func TestStreamReaderErrors(t *testing.T) {
	g := datasets.Nyx(8, 8, 8, 1)
	enc, err := Encode("sz3", g, Config{EB: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader[float64](bytes.NewReader(enc)); err == nil {
		t.Error("dtype mismatch accepted")
	}
	s, err := OpenStream(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Header().Codec != "sz3" {
		t.Fatalf("header codec %q", s.Header().Codec)
	}
	if _, err := NewStreamReader[float32](s); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStreamReader[float32](s); err == nil {
		t.Error("double claim of a Stream accepted")
	}
}
