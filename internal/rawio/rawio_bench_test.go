package rawio_test

import (
	"bytes"
	"io"
	"testing"

	"stz/internal/rawio"
)

// BenchmarkRawioPut/Get move one 32³ float32 box through the Writer and the
// Reader, as a stzd box response and a raw compress request body do. Under
// `go test` the compiler specialises the conversion loops for float32 even
// when they sit in the generic bodies; in a linked binary whose callers are
// generic over T (stzd, stz, the benchmark driver) it did not, and called
// math.Float32bits per value — 2.4 ns/value against the 0.9 these report —
// which is why the loops live in non-generic helpers.
func BenchmarkRawioPut(b *testing.B) {
	vals := make([]float32, 32*32*32)
	for i := range vals {
		vals[i] = float32(i) * 0.5
	}
	w := rawio.NewWriter[float32](io.Discard, 0)
	b.SetBytes(int64(4 * len(vals)))
	for i := 0; i < b.N; i++ {
		if err := w.Write(vals); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRawioGet(b *testing.B) {
	vals := make([]float32, 32*32*32)
	raw := make([]byte, 4*len(vals))
	for i := range raw {
		raw[i] = byte(i)
	}
	src := bytes.NewReader(raw)
	r := rawio.NewReader[float32](src, 0)
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		src.Reset(raw)
		if err := r.ReadExactly(vals); err != nil {
			b.Fatal(err)
		}
	}
}
