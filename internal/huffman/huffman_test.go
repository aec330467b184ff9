package huffman

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stz/internal/bitio"
)

func roundTrip(t *testing.T, codes []uint16, alphabet int) []byte {
	t.Helper()
	enc := Encode(codes, alphabet)
	dec, err := DecodeInto(nil, enc, alphabet)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(dec) != len(codes) {
		t.Fatalf("length mismatch: got %d want %d", len(dec), len(codes))
	}
	for i := range codes {
		if dec[i] != codes[i] {
			t.Fatalf("symbol %d: got %d want %d", i, dec[i], codes[i])
		}
	}
	return enc
}

func TestEmpty(t *testing.T) {
	roundTrip(t, nil, 16)
}

func TestSingleSymbol(t *testing.T) {
	codes := make([]uint16, 1000)
	for i := range codes {
		codes[i] = 7
	}
	enc := roundTrip(t, codes, 16)
	// 1000 one-bit codes + small header: must be far below 1000 bytes.
	if len(enc) > 200 {
		t.Fatalf("single-symbol stream too large: %d bytes", len(enc))
	}
}

func TestTwoSymbols(t *testing.T) {
	codes := []uint16{0, 1, 0, 1, 1, 1, 0}
	roundTrip(t, codes, 2)
}

func TestAllSymbolsOnce(t *testing.T) {
	const alphabet = 300
	codes := make([]uint16, alphabet)
	for i := range codes {
		codes[i] = uint16(i)
	}
	roundTrip(t, codes, alphabet)
}

func TestSkewedDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	codes := make([]uint16, 50000)
	for i := range codes {
		// geometric-ish around 512 mimicking quantizer output
		v := 512 + int(rng.NormFloat64()*3)
		if v < 0 {
			v = 0
		}
		if v > 1023 {
			v = 1023
		}
		codes[i] = uint16(v)
	}
	enc := roundTrip(t, codes, 1024)
	// Entropy here is ~3.5 bits/sym; require meaningful compression vs 16-bit raw.
	if len(enc) >= len(codes)*2/2 {
		t.Fatalf("no compression achieved: %d bytes for %d symbols", len(enc), len(codes))
	}
}

func TestLargeAlphabetSparse(t *testing.T) {
	// Mimics quantizer output with radius 32768: cluster near 32768 plus
	// outlier marker 0. The table must stay compact.
	rng := rand.New(rand.NewSource(1))
	codes := make([]uint16, 20000)
	for i := range codes {
		if rng.Intn(100) == 0 {
			codes[i] = 0
		} else {
			codes[i] = uint16(32768 + rng.Intn(17) - 8)
		}
	}
	enc := roundTrip(t, codes, 65536)
	if len(enc) > 20000 {
		t.Fatalf("sparse large-alphabet stream too large: %d", len(enc))
	}
}

func TestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	codes := make([]uint16, 5000)
	for i := range codes {
		codes[i] = uint16(rng.Intn(256))
	}
	a := Encode(codes, 256)
	b := Encode(codes, 256)
	if !bytes.Equal(a, b) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestUniformRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	codes := make([]uint16, 10000)
	for i := range codes {
		codes[i] = uint16(rng.Intn(4096))
	}
	roundTrip(t, codes, 4096)
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint16, spanRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw) % 2000
		span := int(spanRaw)%1000 + 1
		codes := make([]uint16, n)
		for i := range codes {
			codes[i] = uint16(rng.Intn(span))
		}
		enc := Encode(codes, span)
		dec, err := DecodeInto(nil, enc, span)
		if err != nil || len(dec) != n {
			return false
		}
		for i := range codes {
			if dec[i] != codes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptTableRejected(t *testing.T) {
	codes := []uint16{1, 2, 3, 4, 5}
	enc := Encode(codes, 8)
	for i := 0; i < len(enc); i++ {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xff
		// Must not panic; error or wrong data are both acceptable.
		dec, err := DecodeInto(nil, mut, 8)
		_ = dec
		_ = err
	}
}

func TestTruncatedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	codes := make([]uint16, 1000)
	for i := range codes {
		codes[i] = uint16(rng.Intn(100))
	}
	enc := Encode(codes, 100)
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := DecodeInto(nil, enc[:cut], 100); err == nil && cut < len(enc)/2 {
			t.Fatalf("truncation at %d of %d not detected", cut, len(enc))
		}
	}
}

func TestDepthLimiting(t *testing.T) {
	// Fibonacci-like counts force maximal depth; the length builder must cap
	// at maxCodeLen and still produce a complete prefix code.
	const n = 48
	var bs buildScratch
	a, b := uint64(1), uint64(1)
	for i := 0; i < n; i++ {
		bs.table = append(bs.table, symLen{sym: uint16(i)})
		bs.counts = append(bs.counts, a)
		a, b = b, a+b
	}
	if got := bs.buildLengths(); got <= maxCodeLen {
		t.Fatalf("unlimited depth %d: the counts do not exercise the limiter", got)
	}
	bs.codeLengths()
	var kraft uint64
	for _, e := range bs.table {
		if e.len == 0 || e.len > maxCodeLen {
			t.Fatalf("sym %d length %d out of range", e.sym, e.len)
		}
		kraft += 1 << (maxCodeLen - e.len)
	}
	if kraft != 1<<maxCodeLen {
		t.Fatalf("Kraft sum %d/%d: not a complete prefix code", kraft, uint64(1)<<maxCodeLen)
	}
	// A stream over those symbols (counts scaled down) still round-trips.
	var codes []uint16
	a, b = 1, 1
	for sym := 0; sym < n; sym++ {
		for r := 0; r < int(a%97); r++ {
			codes = append(codes, uint16(sym))
		}
		a, b = b, a+b
	}
	roundTrip(t, codes, n)
}

// TestBuildLengthsMatchesLeastTwo holds the two-queue tree build to the
// definition it must reproduce node for node, since the code table — and so
// every archive byte — follows from which nodes join: repeatedly join the
// two least live nodes under (count, order), a new node's order being its
// index. The histograms have many equal counts, where only the tie-break
// decides, and counts spread over up to 2^41, which makes deep trees.
func TestBuildLengthsMatchesLeastTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(300)
		var bs buildScratch
		for i := 0; i < n; i++ {
			bs.table = append(bs.table, symLen{sym: uint16(i)})
			bs.counts = append(bs.counts, 1+uint64(rng.Intn(1+trial%7))<<uint(rng.Intn(2+trial%40)))
		}
		want := leastTwoLengths(bs.counts)
		bs.buildLengths()
		for i, e := range bs.table {
			if e.len != want[i] {
				t.Fatalf("trial %d (%d symbols): symbol %d length %d, want %d", trial, n, i, e.len, want[i])
			}
		}
	}
}

// leastTwoLengths is the reference: a quadratic scan for the two least live
// nodes, then each leaf's depth.
func leastTwoLengths(counts []uint64) []uint8 {
	type node struct {
		count  uint64
		parent int
		live   bool
	}
	nodes := make([]node, len(counts))
	for i, c := range counts {
		nodes[i] = node{count: c, parent: -1, live: true}
	}
	least := func() int {
		m := -1
		for i := range nodes {
			if nodes[i].live && (m < 0 || nodes[i].count < nodes[m].count) {
				m = i // strict <: the lower index wins a tie
			}
		}
		nodes[m].live = false
		return m
	}
	for live := len(counts); live > 1; live-- {
		a, b := least(), least()
		nodes = append(nodes, node{count: nodes[a].count + nodes[b].count, parent: -1, live: true})
		nodes[a].parent, nodes[b].parent = len(nodes)-1, len(nodes)-1
	}
	lens := make([]uint8, len(counts))
	for i := range lens {
		for j := i; nodes[j].parent >= 0; j = nodes[j].parent {
			lens[i]++
		}
	}
	return lens
}

// craftStream frames a code-length table no encoder produces: the symbol
// count n, then the listed (symbol delta, length) entries, then — byte
// aligned — a directory of three 1-byte lanes and four zero payload bytes.
func craftStream(n uint64, entries [][2]uint64) []byte {
	w := bitio.NewWriter(64)
	w.WriteGamma(n)
	w.WriteGamma(uint64(len(entries)))
	for _, e := range entries {
		w.WriteGamma(e[0])
		w.WriteBits(e[1], 5)
	}
	w.AlignByte()
	w.WriteBytes([]byte{1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	return w.Bytes()
}

// decodeAll runs data through every decode entry point; all must agree on
// whether it is a stream.
func decodeAll(data []byte, alphabet int) []error {
	_, e1 := DecodeInto(nil, data, alphabet)
	_, e2 := DecodeLanesInto(nil, data, alphabet, 1)
	_, e3 := DecodeLanesInto(nil, data, alphabet, 4)
	return []error{e1, e2, e3}
}

func TestCorruptTablesRejected(t *testing.T) {
	ones := func(n int, l uint64) [][2]uint64 {
		out := make([][2]uint64, n)
		for i := range out {
			out[i] = [2]uint64{0, l}
		}
		return out
	}
	for _, tc := range []struct {
		name     string
		alphabet int
		entries  [][2]uint64
	}{
		{"oversubscribed: eight 1-bit codes", 8, ones(8, 1)},
		{"oversubscribed: three 1-bit codes", 8, ones(3, 1)},
		{"distinct > alphabet", 4, ones(5, 3)},
		{"symbol >= alphabet", 8, [][2]uint64{{3, 1}, {4, 1}}},
		{"delta >= alphabet", 8, [][2]uint64{{8, 1}}},
		{"length 0", 8, [][2]uint64{{0, 1}, {0, 0}}},
	} {
		for i, err := range decodeAll(craftStream(8, tc.entries), tc.alphabet) {
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: entry point %d: err = %v, want ErrCorrupt", tc.name, i, err)
			}
		}
	}
	// The same framing with a complete code is a stream.
	for i, err := range decodeAll(craftStream(8, [][2]uint64{{0, 1}, {0, 2}, {0, 2}}), 8) {
		if err != nil {
			t.Errorf("valid crafted table: entry point %d: %v", i, err)
		}
	}
}

// TestTableCountBeyondBlobRejected: a table that claims more entries than
// the rest of the blob has bits for is refused before the table grows.
func TestTableCountBeyondBlobRejected(t *testing.T) {
	w := bitio.NewWriter(16)
	w.WriteGamma(60000) // distinct; fits the alphabet, not the 12 bytes below
	w.WriteBits(0xABCDEF, 24)
	w.AlignByte()
	w.WriteBytes(make([]byte, 8))
	d := new(decoder)
	if err := d.readTable(bitio.NewReader(w.Bytes()), 1<<16); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if cap(d.table) != 0 {
		t.Fatalf("table grew to %d entries before the count was refused", cap(d.table))
	}
}

// TestEntropyBounds pins the coded size between the source's Shannon bound
// and Huffman's one-bit-per-symbol redundancy bound (plus the table).
func TestEntropyBounds(t *testing.T) {
	// 4 equiprobable symbols -> 2 bits each -> a 100-byte payload.
	codes := make([]uint16, 400)
	for i := range codes {
		codes[i] = uint16(i % 4)
	}
	if got := len(Encode(codes, 4)); got < 100 || got > 100+8 {
		t.Fatalf("4 equiprobable symbols x100: %d bytes, want 100 + a header of at most 8", got)
	}

	rng := rand.New(rand.NewSource(11))
	codes = make([]uint16, 40000)
	hist := map[uint16]int{}
	for i := range codes {
		codes[i] = uint16(32768 + int(rng.NormFloat64()*6))
		hist[codes[i]]++
	}
	var entropyBits float64
	for _, c := range hist {
		entropyBits -= float64(c) * math.Log2(float64(c)/float64(len(codes)))
	}
	tableBits := float64(len(hist)*(5+2*16) + 64)
	for name, enc := range map[string][]byte{"v1": Encode(codes, 65536), "lanes": EncodeLanes(codes, 65536)} {
		got := float64(8 * len(enc))
		if got < entropyBits {
			t.Errorf("%s: %.0f bits, below the entropy bound %.0f", name, got, entropyBits)
		}
		if hi := entropyBits + float64(len(codes)) + tableBits + 8*32; got > hi {
			t.Errorf("%s: %.0f bits, above entropy + 1 bit/symbol + table = %.0f", name, got, hi)
		}
	}
}

func BenchmarkEncode50k(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	codes := make([]uint16, 50000)
	for i := range codes {
		v := 512 + int(rng.NormFloat64()*3)
		if v < 0 {
			v = 0
		}
		codes[i] = uint16(v & 1023)
	}
	b.SetBytes(int64(len(codes) * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(codes, 1024)
	}
}

func BenchmarkDecode50k(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	codes := make([]uint16, 50000)
	for i := range codes {
		v := 512 + int(rng.NormFloat64()*3)
		if v < 0 {
			v = 0
		}
		codes[i] = uint16(v & 1023)
	}
	enc := Encode(codes, 1024)
	b.SetBytes(int64(len(codes) * 2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeInto(nil, enc, 1024); err != nil {
			b.Fatal(err)
		}
	}
}
