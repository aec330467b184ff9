package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"stz/internal/bitio"
	"stz/internal/container"
	"stz/internal/core"
	"stz/internal/datasets"
	"stz/internal/huffman"
	"stz/internal/quant"
)

// Entropy-stage micro-benchmarks for the multi-lane Huffman payload and
// the refill-amortized bit I/O underneath it. CI runs these under a
// -cpu 1,4,8 matrix: the lanes-parallel series shows the parallel.For split
// scaling with GOMAXPROCS (a lockstep lane pair per worker below four
// workers, a lane each from four), while the v1, lanes-interleave and
// DecodeClass series must stay flat — they decode on one goroutine by
// design, a single lane or two lanes in lockstep. Every decode series runs
// the one decoder loop over the one lookup table (ARCHITECTURE.md, "Entropy
// coding"); DecodeSmall sits below the request size from which the table's
// entries are extended to several symbols each, DecodeClass at it (lane:
// 8 Ki symbols to decode) and above (range25, whole).

// entropyCodes is a tight normal cluster around the zero-residual code on a
// small alphabet: ~3.7 bits a symbol, no rare-symbol tail. The streams reads
// are bound by look different (BenchmarkHuffmanDecodeClass).
func entropyCodes(n int) []uint16 {
	rng := rand.New(rand.NewSource(42))
	codes := make([]uint16, n)
	for i := range codes {
		v := 512 + int(rng.NormFloat64()*3)
		if v < 0 {
			v = 0
		}
		codes[i] = uint16(v & 1023)
	}
	return codes
}

const entropyAlphabet = 1024

func BenchmarkHuffmanEncode(b *testing.B) {
	codes := entropyCodes(1 << 19)
	b.Run("v1", func(b *testing.B) {
		b.SetBytes(int64(len(codes) * 2))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			huffman.Encode(codes, entropyAlphabet)
		}
	})
	b.Run("lanes", func(b *testing.B) {
		b.SetBytes(int64(len(codes) * 2))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			huffman.EncodeLanes(codes, entropyAlphabet)
		}
	})
}

func BenchmarkHuffmanDecode(b *testing.B) {
	codes := entropyCodes(1 << 19)
	v1 := huffman.Encode(codes, entropyAlphabet)
	v2 := huffman.EncodeLanes(codes, entropyAlphabet)
	dst := make([]uint16, len(codes))

	b.Run("v1", func(b *testing.B) {
		b.SetBytes(int64(len(codes) * 2))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := huffman.DecodeInto(dst[:0], v1, entropyAlphabet); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lanes-interleave", func(b *testing.B) {
		b.SetBytes(int64(len(codes) * 2))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := huffman.DecodeLanesInto(dst[:0], v2, entropyAlphabet, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lanes-parallel", func(b *testing.B) {
		b.SetBytes(int64(len(codes) * 2))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := huffman.DecodeLanesInto(dst[:0], v2, entropyAlphabet, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHuffmanDecodeSmall is the fixed per-stream cost of a decode: 64
// symbols wanted out of a short stream whose table lists ~300 symbols of
// the 65 536-symbol quantizer alphabet, so table parsing and building
// dominate and the symbol loop is noise. "lanes" decodes the whole stream.
func BenchmarkHuffmanDecodeSmall(b *testing.B) {
	const alphabet = 1 << 16
	rng := rand.New(rand.NewSource(42))
	codes := make([]uint16, 1200)
	for i := range codes {
		codes[i] = uint16(32768 + int(rng.NormFloat64()*60))
	}
	blob := huffman.EncodeLanes(codes, alphabet)
	dst := make([]uint16, len(codes))

	b.Run("lanes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := huffman.DecodeLanesInto(dst[:0], blob, alphabet, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// classStream returns the codes of one class section of the side³ Nyx field
// compressed by core at the relative bound rel, and those codes as one
// EncodeLanes blob — what a read decodes and a write encodes: a few bits a
// symbol, a long tail of rare codes, the 65 536-symbol quantizer alphabet.
// The section is fromEnd counted back from the archive's last: 1 is the
// last finest-level class, 8 the last level-2 class, both the (1,1,1)
// parity class of their level, a cube of side/2 or side/4 points.
func classStream(b *testing.B, side int, rel float64, fromEnd int) (blob []byte, codes []uint16) {
	g := datasets.Nyx(side, side, side, 7)
	mn, mx := g.Range()
	cfg := core.DefaultConfig(quant.AbsoluteBound(rel, float64(mn), float64(mx)))
	enc, err := core.Compress(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	arc, err := container.Open(enc)
	if err != nil {
		b.Fatal(err)
	}
	sec, err := arc.Section(arc.Count() - fromEnd)
	if err != nil {
		b.Fatal(err)
	}
	n := side / 2
	if fromEnd > 7 {
		n = side / 4
	}
	codes = brickCodes(b, sec, [3]int{n, n, n})
	return huffman.EncodeLanes(codes, quantAlphabet), codes
}

// brickCodes decodes the codes of a core class section of class dims d, in
// brick order (FORMAT.md §3): the section is the escape count, then a
// laned section (§5) of one lane per brick of 8×16×32 class points (z×y×x,
// clipped at the far faces), in brick order, with the float32 escape
// values inline. Static Huffman sizes do not depend on symbol order, so the
// brick-ordered codes code to the class's own bits.
func brickCodes(b *testing.B, sec []byte, d [3]int) []uint16 {
	var sizes []int
	for z := 0; z < d[0]; z += 8 {
		for y := 0; y < d[1]; y += 16 {
			for x := 0; x < d[2]; x += 32 {
				sizes = append(sizes, (min(z+8, d[0])-z)*(min(y+16, d[1])-y)*(min(x+32, d[2])-x))
			}
		}
	}
	nOut := int(binary.LittleEndian.Uint32(sec))
	s, err := huffman.OpenSection(sec[4:], quantAlphabet, sizes, nOut, 4*nOut)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Release()
	all := make([]int32, len(sizes))
	for i := range all {
		all[i] = int32(i)
	}
	codes := make([]uint16, d[0]*d[1]*d[2])
	if err := s.Decode(all, codes, 1, func(huffman.LaneCodes) {}); err != nil {
		b.Fatal(err)
	}
	return codes
}

const quantAlphabet = 1 << 16

// BenchmarkHuffmanDecodeClass decodes quantizer-shaped class streams — the
// distribution every read is bound by, which entropyCodes' N(512, 3) on a
// 1024-symbol alphabet is not: "whole" is a full decode or a box that needs
// the stream. ns/sym is per symbol decoded, table parse and build included.
func BenchmarkHuffmanDecodeClass(b *testing.B) {
	for _, rel := range []float64{1e-3, 1e-4} {
		blob, codes := classStream(b, 64, rel, 1)
		n := len(codes)
		dst := make([]uint16, n)
		b.Run(fmt.Sprintf("rel%.0e/whole", rel), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := huffman.DecodeLanesInto(dst[:0], blob, quantAlphabet, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/sym")
			b.ReportMetric(8*float64(len(blob))/float64(n), "bits/sym")
		})
	}
}

// BenchmarkHuffmanEncodeClass encodes the class streams a 128³ core.Compress
// produces at rel 1e-3 with EncodeLanes — plan, one exact-size buffer, the
// four lanes: "finest" is the last finest-level class (256 Ki symbols,
// where the per-symbol loops are everything), "level2" the last level-2
// class (32 Ki symbols, more bits each and more symbols present), which
// guards the fixed cost a plan pays per stream — collecting the present
// symbols, the tree, the table — that a faster symbol loop must not buy
// back.
func BenchmarkHuffmanEncodeClass(b *testing.B) {
	for _, s := range []struct {
		name    string
		fromEnd int
	}{{"finest", 1}, {"level2", 8}} {
		blob, codes := classStream(b, 128, 1e-3, s.fromEnd)
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := huffman.EncodeLanes(codes, quantAlphabet)
				if i == 0 && !bytes.Equal(out, blob) {
					b.Fatal("encoding the class stream is not deterministic")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(codes)), "ns/sym")
			b.ReportMetric(8*float64(len(blob))/float64(len(codes)), "bits/sym")
		})
	}
}

// BenchmarkBitioRefill isolates the word-level reader fast path against
// the checked ReadBits path on the same 11-bit-symbol stream, plus the
// word-batched unary/gamma codecs rewritten over WriteBits.
func BenchmarkBitioRefill(b *testing.B) {
	const symbols = 1 << 19
	w := bitio.NewWriter(symbols * 2)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < symbols; i++ {
		w.WriteBits(uint64(rng.Intn(1<<11)), 11)
	}
	stream := w.Bytes()

	b.Run("readbits", func(b *testing.B) {
		b.SetBytes(symbols * 11 / 8)
		var r bitio.Reader
		var sink uint64
		for i := 0; i < b.N; i++ {
			r.Reset(stream)
			for j := 0; j < symbols; j++ {
				v, err := r.ReadBits(11)
				if err != nil {
					b.Fatal(err)
				}
				sink += v
			}
		}
		_ = sink
	})
	b.Run("refill-peek-skip", func(b *testing.B) {
		b.SetBytes(symbols * 11 / 8)
		var r bitio.Reader
		var sink uint64
		for i := 0; i < b.N; i++ {
			r.Reset(stream)
			j := 0
			// Budget: after a >=56-bit refill, five 11-bit symbols decode
			// with no further checks.
			for ; j+5 <= symbols && r.Refill() >= 56; j += 5 {
				for k := 0; k < 5; k++ {
					sink += r.PeekFast(11)
					r.SkipFast(11)
				}
			}
			for ; j < symbols; j++ {
				v, err := r.ReadBits(11)
				if err != nil {
					b.Fatal(err)
				}
				sink += v
			}
		}
		_ = sink
	})
	b.Run("gamma", func(b *testing.B) {
		gw := bitio.NewWriter(symbols)
		for i := 0; i < symbols/4; i++ {
			gw.WriteGamma(uint64(rng.Intn(1 << 12)))
		}
		gstream := gw.Bytes()
		b.SetBytes(int64(len(gstream)))
		var r bitio.Reader
		for i := 0; i < b.N; i++ {
			r.Reset(gstream)
			for j := 0; j < symbols/4; j++ {
				if _, err := r.ReadGamma(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
