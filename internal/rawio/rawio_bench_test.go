package rawio_test

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"

	"stz/internal/grid"
	"stz/internal/rawio"
)

// BenchmarkRawioPut/Get move one 32³ float32 box through the Writer and the
// Reader, as a stzd box response and a raw compress request body do. On a
// little-endian host neither touches a value: the Writer hands the slice's
// bytes to the io.Writer and the Reader reads into them, so what is timed
// is the byte stream's own copy.
func BenchmarkRawioPut(b *testing.B) {
	vals := make([]float32, 32*32*32)
	for i := range vals {
		vals[i] = float32(i) * 0.5
	}
	w := rawio.NewWriter[float32](io.Discard)
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
	r := rawio.NewReader[float32](src)
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		src.Reset(raw)
		if err := r.ReadExactly(vals); err != nil {
			b.Fatal(err)
		}
	}
}

// appendEach appends vals one AppendValues call per value, from a caller
// generic over T as the codecs' escape loops are.
func appendEach[T grid.Float](buf []byte, vals []T) []byte {
	for _, v := range vals {
		buf = rawio.AppendValues(buf, v)
	}
	return buf
}

// appendSink keeps the appended bytes alive past the benchmark loop.
var appendSink []byte

// BenchmarkRawioAppend appends 4 096 float32 values to a reused buffer: one
// AppendValues call per value (one, the escape loops' form), one call for
// all of them (all), and the hand-rolled binary.LittleEndian.AppendUint32
// per value (hand) the single-value path is held to.
func BenchmarkRawioAppend(b *testing.B) {
	vals := make([]float32, 4096)
	for i := range vals {
		vals[i] = float32(i) * 0.5
	}
	buf := make([]byte, 0, 4*len(vals))
	b.Run("one", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = appendEach(buf[:0], vals)
		}
	})
	b.Run("all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = rawio.AppendValues(buf[:0], vals...)
		}
	})
	b.Run("hand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buf = buf[:0]
			for _, v := range vals {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
			}
		}
	})
	appendSink = buf
}

// getEach decodes dst one GetValue call per value, from a caller generic
// over T as the decoders' escape placement is.
func getEach[T grid.Float](dst []T, src []byte) {
	elem := rawio.ElemSize[T]()
	for i := range dst {
		dst[i] = rawio.GetValue[T](src[i*elem:])
	}
}

// BenchmarkRawioGetValues decodes 4 096 float32 values: one GetValue call
// per value (one, the escape placement's form), one GetValues call for all
// of them (all), and the hand-rolled binary.LittleEndian.Uint32 per value
// (hand).
func BenchmarkRawioGetValues(b *testing.B) {
	vals := make([]float32, 4096)
	raw := make([]byte, 4*len(vals))
	for i := range raw {
		raw[i] = byte(i)
	}
	b.Run("one", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			getEach(vals, raw)
		}
	})
	b.Run("all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rawio.GetValues(vals, raw)
		}
	})
	b.Run("hand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range vals {
				vals[j] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*j:]))
			}
		}
	})
}
