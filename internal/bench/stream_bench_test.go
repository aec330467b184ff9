package bench

import (
	"bytes"
	"io"
	"testing"

	"stz/internal/codec"
	"stz/internal/datasets"
)

// The streaming benchmarks measure the bounded-memory codec pipeline —
// the hot path behind `stz compress`/`decompress` and the stzd service —
// against the buffered Encode/Decode it is byte-compatible with, so the
// CI regression gate covers both entry points of every backend.

// streamDecode decodes enc through the streaming Reader on four workers.
func streamDecode(enc []byte) error {
	sr, err := codec.NewReader[float32](bytes.NewReader(enc))
	if err != nil {
		return err
	}
	sr.Workers = 4
	_, err = sr.ReadGrid()
	return err
}

func streamGrid() ([]float32, int, int, int) {
	g := datasets.Nyx(64, 64, 64, 11)
	return g.Data, g.Nz, g.Ny, g.Nx
}

func BenchmarkStreamEncode(b *testing.B) {
	data, nz, ny, nx := streamGrid()
	cfg := codec.Config{EB: 1e-3, Workers: 4, Chunks: 4}
	for _, name := range codec.Names() {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(4 * len(data)))
			for i := 0; i < b.N; i++ {
				sw, err := codec.NewWriter[float32](io.Discard, name, nz, ny, nx, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if err := sw.Write(data); err != nil {
					b.Fatal(err)
				}
				if err := sw.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStreamDecode(b *testing.B) {
	data, nz, ny, nx := streamGrid()
	cfg := codec.Config{EB: 1e-3, Workers: 4, Chunks: 4}
	for _, name := range codec.Names() {
		var buf bytes.Buffer
		sw, err := codec.NewWriter[float32](&buf, name, nz, ny, nx, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := sw.Write(data); err != nil {
			b.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			b.Fatal(err)
		}
		enc := buf.Bytes()
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(4 * len(data)))
			for i := 0; i < b.N; i++ {
				if err := streamDecode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
