package codec_test

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"testing"

	"stz/internal/codec"
	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/rawio"
)

// leBytes returns vals as little-endian bytes, the raw form ReadFrom takes
// and WriteTo emits.
func leBytes[T grid.Float](vals []T) []byte {
	b := make([]byte, len(vals)*rawio.ElemSize[T]())
	rawio.PutValues(b, vals)
	return b
}

// TestRawSinksMatchBuffered is the contract of the raw-value sinks: for
// every registered codec, both element types, one slab and several,
// Writer.ReadFrom produces Encode's bytes and Reader.WriteTo the
// little-endian bytes of Decode; a body that is short by a value, one
// value long or ends inside a value fails with nothing written to the
// sink; and a source's *http.MaxBytesError survives the wrapping, which
// stzd turns into 413.
func TestRawSinksMatchBuffered(t *testing.T) {
	g32 := datasets.Nyx(16, 8, 8, 2)
	g64 := grid.ToFloat64(g32)
	cases := []struct {
		label string
		cfg   codec.Config
	}{
		{"one-slab", codec.Config{EB: 0.05, Chunks: 1}},
		{"chunked", codec.Config{EB: 0.05, Workers: 2, Chunks: 2}},
	}
	for _, name := range codec.Names() {
		for _, tc := range cases {
			t.Run(name+"/"+tc.label, func(t *testing.T) {
				checkRawSinks(t, name, g32, tc.cfg)
				checkRawSinks(t, name, g64, tc.cfg)
			})
		}
	}
}

func checkRawSinks[T grid.Float](t *testing.T, name string, g *grid.Grid[T], cfg codec.Config) {
	t.Helper()
	want, err := codec.Encode(name, g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	body := leBytes(g.Data)
	var arc bytes.Buffer
	sw, err := codec.NewWriter[T](&arc, name, g.Nz, g.Ny, g.Nx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := sw.ReadFrom(bytes.NewReader(body)); err != nil || n != int64(len(body)) {
		t.Fatalf("ReadFrom: %d of %d bytes, %v", n, len(body), err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(arc.Bytes(), want) {
		t.Fatalf("ReadFrom archive differs from Encode (%d vs %d bytes)", arc.Len(), len(want))
	}

	dec, err := codec.Decode[T](want, cfg.Workers)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := codec.NewReader[T](bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	sr.Workers = cfg.Workers
	var raw bytes.Buffer
	if n, err := sr.WriteTo(&raw); err != nil || n != int64(len(body)) {
		t.Fatalf("WriteTo: %d of %d bytes, %v", n, len(body), err)
	}
	if !bytes.Equal(raw.Bytes(), leBytes(dec.Data)) {
		t.Fatal("WriteTo bytes differ from Decode's")
	}

	elem := rawio.ElemSize[T]()
	long := append(append([]byte(nil), body...), make([]byte, elem)...)
	for label, src := range map[string]io.Reader{
		"short":     bytes.NewReader(body[:len(body)-elem]),
		"long":      bytes.NewReader(long),
		"mid-value": bytes.NewReader(body[:len(body)-1]),
		"capped":    http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), int64(len(body)/2)),
		"capped-tail": http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(long)),
			int64(len(body))),
	} {
		var sink bytes.Buffer
		sw, err := codec.NewWriter[T](&sink, name, g.Nz, g.Ny, g.Nx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sw.ReadFrom(src)
		if err == nil {
			t.Fatalf("%s body accepted", label)
		}
		var mbe *http.MaxBytesError
		if capped := label == "capped" || label == "capped-tail"; capped != errors.As(err, &mbe) {
			t.Fatalf("%s body: errors.As(*http.MaxBytesError) = %v for %v", label, !capped, err)
		}
		if err := sw.Close(); err == nil {
			t.Fatalf("%s body: Close succeeded", label)
		}
		if sink.Len() != 0 {
			t.Fatalf("%s body: %d bytes written to the sink", label, sink.Len())
		}
	}
}
