package bench

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

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
// dominate and the symbol loop is noise. "lanes" decodes the whole stream
// (the only way to reach the 64 symbols before DecodeLanesRange existed);
// "range64" decodes just them.
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
	b.Run("range64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := huffman.DecodeLanesRange(dst[:0], blob, alphabet, 0, 64); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// classStream returns the Huffman blob and the codes of one class section
// of the side³ Nyx field compressed by core at the relative bound rel —
// section fromEnd counted back from the archive's last, 1 being the last
// finest-level class: what a read actually decodes and a write encodes — a
// few bits a symbol, a long tail of rare codes, the 65 536-symbol quantizer
// alphabet.
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
	// Section plan (FORMAT.md §3): header, level-1 stream, then seven class
	// sections per predicted level; a class section is its outlier count,
	// the float32 outliers, then the code blob.
	sec, err := arc.Section(arc.Count() - fromEnd)
	if err != nil {
		b.Fatal(err)
	}
	blob = sec[4+4*int(binary.LittleEndian.Uint32(sec)):]
	codes, err = huffman.DecodeLanesInto(nil, blob, quantAlphabet, 1)
	if err != nil {
		b.Fatal(err)
	}
	return blob, codes
}

const quantAlphabet = 1 << 16

// BenchmarkHuffmanDecodeClass decodes quantizer-shaped class streams — the
// distribution every read is bound by, which entropyCodes' N(512, 3) on a
// 1024-symbol alphabet is not: "whole" is a full decode or a box that needs
// the stream, "lane" one lane of four (a parallel worker's share), "range25"
// the quarter of the stream around its middle that a region of interest asks
// for (two lane prefixes). ns/sym is per symbol actually decoded, table
// parse and build included.
func BenchmarkHuffmanDecodeClass(b *testing.B) {
	for _, rel := range []float64{1e-3, 1e-4} {
		blob, codes := classStream(b, 64, rel, 1)
		n := len(codes)
		dst := make([]uint16, n)
		run := func(name string, lo, hi int) {
			b.Run(fmt.Sprintf("rel%.0e/%s", rel, name), func(b *testing.B) {
				var decoded int
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var err error
					if _, decoded, err = huffman.DecodeLanesRange(dst[:0], blob, quantAlphabet, lo, hi); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(decoded), "ns/sym")
				b.ReportMetric(8*float64(len(blob))/float64(n), "bits/sym")
			})
		}
		run("whole", 0, n)
		run("lane", 0, n/4)
		run("range25", 3*n/8, 5*n/8)
	}
}

// BenchmarkHuffmanEncodeClass encodes the class streams a 128³ core.Compress
// produces at rel 1e-3, the way EncodeLanes does — plan, one exact-size
// buffer, the four lanes — with the two steps timed apart: "finest" is the
// last finest-level class (256 Ki symbols, where the per-symbol loops are
// everything), "level2" the last level-2 class (32 Ki symbols, more bits
// each and more symbols present), which guards the fixed cost a plan pays
// per stream — collecting the present symbols, the tree, the table — that a
// faster symbol loop must not buy back.
func BenchmarkHuffmanEncodeClass(b *testing.B) {
	for _, s := range []struct {
		name    string
		fromEnd int
	}{{"finest", 1}, {"level2", 8}} {
		blob, codes := classStream(b, 128, 1e-3, s.fromEnd)
		b.Run(s.name, func(b *testing.B) {
			var plan, write time.Duration
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				p := huffman.NewPlan(codes, quantAlphabet)
				t1 := time.Now()
				out := make([]byte, p.Size())
				for k := 0; k < huffman.Lanes; k++ {
					p.WriteLane(out, k)
				}
				p.Release()
				plan += t1.Sub(t0)
				write += time.Since(t1)
				if i == 0 && !bytes.Equal(out, blob) {
					b.Fatal("encoded class stream differs from the archive's")
				}
			}
			perSym := float64(b.N) * float64(len(codes))
			b.ReportMetric(float64(plan.Nanoseconds())/perSym, "plan-ns/sym")
			b.ReportMetric(float64(write.Nanoseconds())/perSym, "write-ns/sym")
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
