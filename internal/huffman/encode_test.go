package huffman

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"stz/internal/bitio"
)

// refEncode is the encoder's oracle: the same code table (tree build and
// canonical assignment are shared with the encoder, they are not what it
// tests), then one checked bitio.WriteBits per symbol, the lanes one after
// the other into writers of their own, the directory from their lengths.
// lanes is 1 for the v1 layout (Encode) and numLanes for EncodeLanes.
func refEncode(codes []uint16, alphabet, lanes int) []byte {
	hist := make([]uint64, alphabet)
	for _, c := range codes {
		hist[c]++
	}
	var bs buildScratch
	for sym, c := range hist {
		if c > 0 {
			bs.table = append(bs.table, symLen{sym: uint16(sym)})
			bs.counts = append(bs.counts, c)
		}
	}
	bs.codeLengths()
	packed := make([]uint64, alphabet)
	for i, e := range packCodes(bs.table, nil) {
		packed[bs.table[i].sym] = e
	}
	emit := func(w *bitio.Writer, seg []uint16) {
		for _, c := range seg {
			w.WriteBits(packed[c]>>8, uint(packed[c]&0xff))
		}
	}
	w := bitio.NewWriter(0)
	w.WriteGamma(uint64(len(codes)))
	writeLengths(w, bs.table)
	if lanes == 1 {
		emit(w, codes)
		return w.Bytes()
	}
	w.AlignByte()
	var payload []byte
	for k := 0; k < lanes; k++ {
		lo, hi := laneBounds(len(codes), k)
		lw := bitio.NewWriter(0)
		emit(lw, codes[lo:hi])
		if k < lanes-1 {
			w.WriteBits(uint64(len(lw.Bytes())), 40)
		}
		payload = append(payload, lw.Bytes()...)
	}
	w.AlignByte() // whole bytes already; drains them from the accumulator
	w.WriteBytes(payload)
	return w.Bytes()
}

// checkAgainstOracle compares Encode and EncodeLanes with refEncode byte for
// byte and decodes what they wrote. It returns the table's longest code.
func checkAgainstOracle(t testing.TB, what string, codes []uint16, alphabet int) uint8 {
	t.Helper()
	v1, v2 := Encode(codes, alphabet), EncodeLanes(codes, alphabet)
	if want := refEncode(codes, alphabet, 1); !bytes.Equal(v1, want) {
		t.Fatalf("%s: Encode differs from the oracle (%d bytes, oracle %d, first difference at %d)",
			what, len(v1), len(want), firstDiff(v1, want))
	}
	if want := refEncode(codes, alphabet, numLanes); !bytes.Equal(v2, want) {
		t.Fatalf("%s: EncodeLanes differs from the oracle (%d bytes, oracle %d, first difference at %d)",
			what, len(v2), len(want), firstDiff(v2, want))
	}
	// The same blob through the plan's own entry points, last lane first:
	// a lane's bytes depend on no other lane having been written.
	p := newPlan(codes, alphabet, numLanes)
	planned := make([]byte, p.size)
	for k := numLanes - 1; k >= 0; k-- {
		p.writeLanes(planned, k, k+1)
	}
	p.release()
	if !bytes.Equal(planned, v2) {
		t.Fatalf("%s: lanes written in reverse differ from EncodeLanes (first difference at %d)", what, firstDiff(planned, v2))
	}
	if dec, err := DecodeInto(nil, v1, alphabet); err != nil || !slices.Equal(dec, codes) {
		t.Fatalf("%s: v1 round trip failed: %v", what, err)
	}
	if dec, err := DecodeLanesInto(nil, v2, alphabet, 1); err != nil || !slices.Equal(dec, codes) {
		t.Fatalf("%s: lanes round trip failed: %v", what, err)
	}
	return maxLenOf(t, v2, alphabet)
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// fibonacciCodes returns a shuffled stream over syms symbols whose counts
// are the Fibonacci numbers: a code of every length up to syms-1.
func fibonacciCodes(rng *rand.Rand, syms int) []uint16 {
	var codes []uint16
	for sym, a, b := 0, 1, 1; sym < syms; sym, a, b = sym+1, b, a+b {
		for r := 0; r < a; r++ {
			codes = append(codes, uint16(sym))
		}
	}
	rng.Shuffle(len(codes), func(i, j int) { codes[i], codes[j] = codes[j], codes[i] })
	return codes
}

// oracleStreams are the symbol distributions the encoder is compared with
// its oracle on; every generator stays inside [0, alphabet).
var oracleStreams = []struct {
	name string
	gen  func(rng *rand.Rand, alphabet int) uint16
}{
	{"single", func(_ *rand.Rand, a int) uint16 { return uint16(a / 2) }},
	{"two", func(rng *rand.Rand, a int) uint16 { return uint16(a/2 - rng.Intn(2)) }},
	{"geometric", func(rng *rand.Rand, a int) uint16 { return uint16(min(int(rng.ExpFloat64()*3), a-1)) }},
	{"class0.7", func(rng *rand.Rand, a int) uint16 { return normalCode(rng, a, 0.7) }},
	{"class2", func(rng *rand.Rand, a int) uint16 { return normalCode(rng, a, 2) }},
	{"class8", func(rng *rand.Rand, a int) uint16 { return normalCode(rng, a, 8) }},
	{"escapes", func(rng *rand.Rand, a int) uint16 {
		if rng.Intn(10) < 7 {
			return 0
		}
		return normalCode(rng, a, 2)
	}},
	{"uniform", func(rng *rand.Rand, a int) uint16 { return uint16(rng.Intn(a)) }},
	{"ends", func(rng *rand.Rand, a int) uint16 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return uint16(a - 1)
		}
		return normalCode(rng, a, 2)
	}},
}

func normalCode(rng *rand.Rand, alphabet int, sigma float64) uint16 {
	return uint16(min(max(alphabet/2+int(rng.NormFloat64()*sigma), 0), alphabet-1))
}

// TestEncodeMatchesOracle runs the plan-then-write encoder against the
// oracle over stream lengths around every loop boundary (fewer symbols than
// lanes, lanes shorter than one 8-byte store, n mod 4 and n mod 3 of every
// kind), and over tables whose codes always go three to a store and tables
// with codes too long for that.
func TestEncodeMatchesOracle(t *testing.T) {
	sizes := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4095, 4096, 4097, 32 << 10, 256<<10 + 3}
	if testing.Short() {
		sizes = sizes[:len(sizes)-1]
	}
	for _, alphabet := range []int{2, 256, 1 << 16} {
		for si, s := range oracleStreams {
			for _, n := range sizes {
				rng := rand.New(rand.NewSource(int64(1000*si + n)))
				codes := make([]uint16, n)
				for i := range codes {
					codes[i] = s.gen(rng, alphabet)
				}
				if maxLen := checkAgainstOracle(t, fmt.Sprintf("%s/alphabet=%d/n=%d", s.name, alphabet, n), codes, alphabet); maxLen > 19 {
					t.Fatalf("%s/alphabet=%d/n=%d: a %d-bit code: three codes no longer always fit a store", s.name, alphabet, n, maxLen)
				}
			}
		}
	}
	// Code lengths 1..23, then 1..31: 32 Fibonacci counts give the longest
	// code the format admits (one more symbol and the depth limiter flattens
	// the tree to 17 levels — TestDepthLimiting has that side). Shuffled,
	// a long code is alone among short ones; sorted, the rare symbols sit
	// together, and three of their codes do not fit one store.
	deep := []int{24}
	if !testing.Short() {
		deep = append(deep, 32)
	}
	for _, syms := range deep {
		codes := fibonacciCodes(rand.New(rand.NewSource(int64(syms))), syms)
		for _, order := range []string{"shuffled", "sorted"} {
			if maxLen := checkAgainstOracle(t, fmt.Sprintf("fibonacci/%d/%s", syms, order), codes, syms); int(maxLen) != syms-1 {
				t.Fatalf("fibonacci/%d: longest code %d, want %d", syms, maxLen, syms-1)
			}
			slices.Sort(codes)
		}
	}
}

// A symbol outside the alphabet is the caller's bug: the encoder panics
// rather than write a blob no decoder accepts, and the next encode finds
// the pooled histogram clean.
func TestSymbolOutsideAlphabetPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("symbol 300 of a 256-symbol alphabet was encoded")
			}
		}()
		EncodeLanes([]uint16{1, 2, 300, 4}, 256)
	}()
	checkAgainstOracle(t, "after the panic", []uint16{1, 2, 3, 4, 300}, 301)
}

// FuzzEncodeLanes: fuzzed symbols, alphabet and skew against the oracle,
// plus the decode round trip. skew repeats a byte's symbol, so short inputs
// still reach lanes longer than one store and tables with long codes.
func FuzzEncodeLanes(f *testing.F) {
	f.Add([]byte{}, uint16(4), uint8(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint16(9), uint8(3))
	f.Add(bytes.Repeat([]byte{3, 200, 7}, 300), uint16(700), uint8(1))
	f.Add([]byte{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}, uint16(65535), uint8(40))
	f.Fuzz(func(t *testing.T, raw []byte, span uint16, skew uint8) {
		alphabet := int(span) + 1
		var codes []uint16
		for i, b := range raw {
			sym := uint16(int(b) * alphabet / 256)
			for r := 0; r <= int(skew)*(i%7); r++ {
				codes = append(codes, sym)
			}
		}
		checkAgainstOracle(t, "fuzz", codes, alphabet)
	})
}

// TestPinnedEncoderBlobs pins the encoder's bytes one layer below the
// archive pins (core's TestPinnedWalkerArchives, sz3's
// TestPinnedEncoderArchives): FNV-64a digests of Encode and EncodeLanes
// over six fixed streams, recorded from the encoder as it stood before the
// plan-then-write restructuring. A drift here is a format change.
func TestPinnedEncoderBlobs(t *testing.T) {
	single := make([]uint16, 1000)
	for i := range single {
		single[i] = 7
	}
	uniform := make([]uint16, 5001)
	rng := rand.New(rand.NewSource(11))
	for i := range uniform {
		uniform[i] = uint16(rng.Intn(256))
	}
	pins := []struct {
		name     string
		codes    []uint16
		alphabet int
		v1, v2   uint64
	}{
		{"quant-escapes", quantCodes(rand.New(rand.NewSource(1)), 100003, 1.5, true), 1 << 16, 0xceeaf7becff3210, 0x48ee06298c2a26f8},
		{"quant-wide", quantCodes(rand.New(rand.NewSource(2)), 32768, 40, false), 1 << 16, 0x16d4bb4b9abe0522, 0x57ee81bd3da1585},
		{"uniform-256", uniform, 256, 0xd6958dda3eaed28e, 0x65c8e17087ddf37b},
		{"single", single, 16, 0x8fe7264cb9104f5d, 0x55b2a5ad3a6abb05},
		{"fibonacci-24", fibonacciCodes(rand.New(rand.NewSource(3)), 24), 24, 0xb6103523305652ac, 0x3550f556b47794a6},
		{"three", []uint16{9, 0, 9}, 10, 0xaea3139ede07d576, 0xc79af47fdfe791fc},
	}
	digest := func(b []byte) uint64 {
		h := fnv.New64a()
		h.Write(b)
		return h.Sum64()
	}
	for _, p := range pins {
		v1, v2 := digest(Encode(p.codes, p.alphabet)), digest(EncodeLanes(p.codes, p.alphabet))
		if v1 != p.v1 || v2 != p.v2 {
			t.Errorf("%s: Encode %#x, EncodeLanes %#x; pinned %#x, %#x", p.name, v1, v2, p.v1, p.v2)
		}
	}
}
