package huffman

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// The multi-symbol table build is chosen by the size of the request
// (multiMin), which none of the other tests' and fuzzers' small inputs
// reach. The tests below build the table both ways over the SAME blob and
// compare symbol for symbol.

// decodeBuilt decodes the lanes [from, numLanes) of an EncodeLanes blob with
// the lookup table built as for a call that wants `want` symbols: 0 fills
// one symbol per entry, multiMin every symbol the window holds.
func decodeBuilt(data []byte, alphabet, want, from int) ([]uint16, error) {
	out, d, lanes, err := decodeLanesHeader(nil, data, alphabet)
	if err != nil || len(out) == 0 {
		return out, err
	}
	defer releaseDecoder(d)
	d.build(want)
	return out, d.decodeLanes(data, out, lanes[from:])
}

// bothBuilds decodes blob with either table build, whole and from lane 1 on
// (a pair and an odd lane), and fails unless the two builds agree — on the
// error, or symbol for symbol. It returns the whole decode.
func bothBuilds(t testing.TB, blob []byte, alphabet int) ([]uint16, error) {
	t.Helper()
	var whole []uint16
	var wholeErr error
	for from := 0; from < 2; from++ {
		one, errOne := decodeBuilt(blob, alphabet, 0, from)
		multi, errMulti := decodeBuilt(blob, alphabet, multiMin, from)
		if (errOne == nil) != (errMulti == nil) {
			t.Fatalf("lanes %d..: one-symbol build: %v, multi-symbol build: %v", from, errOne, errMulti)
		}
		if errOne == nil {
			lo, _ := laneBounds(len(one), from)
			if len(one) != len(multi) || !slices.Equal(one[lo:], multi[lo:]) {
				for i := lo; i < len(one) && i < len(multi); i++ {
					if one[i] != multi[i] {
						t.Fatalf("lanes %d..: symbol %d of %d: one-symbol build %d, multi-symbol build %d", from, i, len(one), one[i], multi[i])
					}
				}
				t.Fatalf("lanes %d..: lengths %d and %d", from, len(one), len(multi))
			}
		}
		if from == 0 {
			whole, wholeErr = multi, errMulti
		}
	}
	return whole, wholeErr
}

// quantCodes draws n quantizer-shaped codes on the 65 536 alphabet: a
// two-sided geometric around the zero-residual code with a long tail of
// rare symbols (code lengths well past tableBits) and, when esc, the
// escape code 0.
func quantCodes(rng *rand.Rand, n int, spread float64, esc bool) []uint16 {
	codes := make([]uint16, n)
	for i := range codes {
		switch r := rng.Float64(); {
		case esc && r < 0.002:
			codes[i] = 0
		case r < 0.01:
			codes[i] = uint16(32768 + rng.Intn(4001) - 2000)
		default:
			codes[i] = uint16(32768 + int(rng.ExpFloat64()*spread)*(2*rng.Intn(2)-1))
		}
	}
	return codes
}

func maxLenOf(t testing.TB, blob []byte, alphabet int) uint8 {
	t.Helper()
	_, d, _, err := decodeLanesHeader(nil, blob, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	defer releaseDecoder(d)
	d.build(0)
	return d.maxLen
}

func TestMultiSymbolBuildDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	type stream struct {
		name     string
		codes    []uint16
		alphabet int
	}
	var streams []stream
	// n mod 4 in {0,1,2,3}, n just below/at/above the threshold, and lanes
	// shorter than the 8 bytes a peek needs.
	for _, n := range []int{1, 2, 3, 4, 5, 7, 13, 30, 61, 4096, 4097, 4098, 4099,
		multiMin - 1, multiMin, multiMin + 1, multiMin + 2, 3*multiMin + 3} {
		streams = append(streams,
			stream{fmt.Sprintf("quant/n=%d", n), quantCodes(rng, n, 1.5, true), 1 << 16},
			stream{fmt.Sprintf("wide/n=%d", n), quantCodes(rng, n, 40, false), 1 << 16})
	}
	one := make([]uint16, multiMin+5)
	for i := range one {
		one[i] = 77
	}
	streams = append(streams, stream{"one-symbol alphabet", one, 100})
	// Fibonacci counts: code lengths up to the depth limit.
	var deep []uint16
	for sym, a, b := 0, 1, 1; sym < 36; sym, a, b = sym+1, b, a+b {
		for r := 0; r < min(a, 1<<20); r++ {
			deep = append(deep, uint16(sym))
		}
	}
	rng.Shuffle(len(deep), func(i, j int) { deep[i], deep[j] = deep[j], deep[i] })
	streams = append(streams, stream{"fibonacci", deep[:200000], 36})

	// Codes past the window on every lookup, and on every other one: the
	// slowWalk hand-overs of each loop, in every position of a round.
	long := make([]uint16, 150000)
	mixed := make([]uint16, 150000)
	for i := range long {
		long[i] = uint16(rng.Intn(5000))
		mixed[i] = uint16(rng.Intn(3))
		if rng.Intn(3) == 0 {
			mixed[i] = uint16(3 + rng.Intn(20000))
		}
	}
	streams = append(streams, stream{"all long", long, 5000}, stream{"mixed", mixed, 1 << 16})

	sawDeep := false
	for _, s := range streams {
		blob := EncodeLanes(s.codes, s.alphabet)
		got, err := bothBuilds(t, blob, s.alphabet)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if !slices.Equal(got, s.codes) {
			t.Fatalf("%s: decode differs from the encoded symbols", s.name)
		}
		sawDeep = sawDeep || maxLenOf(t, blob, s.alphabet) > tableBits
		// The public entry points, whichever build they pick.
		for _, workers := range []int{1, 4} {
			if got, err := DecodeLanesInto(nil, blob, s.alphabet, workers); err != nil || !slices.Equal(got, s.codes) {
				t.Fatalf("%s: DecodeLanesInto(workers=%d): err %v", s.name, workers, err)
			}
		}
		if got, err := DecodeInto(nil, Encode(s.codes, s.alphabet), s.alphabet); err != nil || !slices.Equal(got, s.codes) {
			t.Fatalf("%s: v1 round trip: err %v", s.name, err)
		}
	}
	if !sawDeep {
		t.Fatal("no stream with a code longer than the table window")
	}
}

const canary = 0xA5C3

// canaried returns a buffer of n+64 symbols, all canary, for decoding into
// its first n.
func canaried(n int) []uint16 {
	buf := make([]uint16, n+64)
	for i := range buf {
		buf[i] = canary
	}
	return buf
}

func checkCanary(t testing.TB, what string, buf []uint16, from int) {
	t.Helper()
	for i := from; i < len(buf); i++ {
		if buf[i] != canary {
			t.Fatalf("%s: wrote symbol %d, past the %d it may write", what, i, from)
		}
	}
}

// decodeEveryWay runs the whole-stream, parallel and v1 decodes of
// blob into the first n symbols of canaried buffers: each must fail or
// succeed, never panic, and never write past the symbols it was asked for.
func decodeEveryWay(t testing.TB, what string, blob []byte, alphabet, n int) {
	t.Helper()
	// The capacity stops at n, so a corrupted larger count decodes elsewhere.
	check := func(name string, buf, out []uint16, err error, asked int) {
		t.Helper()
		from := n
		if err == nil && len(out) <= n {
			from = min(asked, len(out))
		}
		checkCanary(t, what+": "+name, buf, from)
	}
	for _, workers := range []int{1, 2, 4} {
		if workers > 1 && n < laneParallelMin {
			break // one goroutine decodes it whatever the workers
		}
		buf := canaried(n)
		out, err := DecodeLanesInto(buf[:0:n], blob, alphabet, workers)
		check(fmt.Sprintf("workers=%d", workers), buf, out, err, n)
	}
	buf := canaried(n)
	out, err := DecodeInto(buf[:0:n], blob, alphabet)
	check("v1", buf, out, err, n)
}

func TestMultiSymbolCorruptAndCanary(t *testing.T) {
	// Four workers must mean four lanes at once, whatever the machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rng := rand.New(rand.NewSource(23))
	const alphabet = 1 << 16
	// Truncate blob at each cut and flip a bit of the byte there.
	damage := func(blob []byte, n int, cuts []int) {
		for _, at := range cuts {
			if at < 0 || at > len(blob) {
				continue
			}
			decodeEveryWay(t, fmt.Sprintf("truncated at %d", at), blob[:at], alphabet, n)
			if at == len(blob) {
				continue
			}
			mut := bytes.Clone(blob)
			mut[at] ^= 1 << rng.Intn(8)
			decodeEveryWay(t, fmt.Sprintf("bit flipped in byte %d", at), mut, alphabet, n)
			_, _ = bothBuilds(t, mut, alphabet)
		}
	}

	// Every lane boundary +-1, on a stream long enough for the parallel path.
	n := laneParallelMin + 3
	blob := EncodeLanes(quantCodes(rng, n, 2, true), alphabet)
	decodeEveryWay(t, "intact", blob, alphabet, n)
	_, d, lanes, err := decodeLanesHeader(nil, blob, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	releaseDecoder(d)
	var cuts []int
	for _, ln := range lanes {
		for _, delta := range []int{-1, 0, 1} {
			cuts = append(cuts, ln.bit/8+delta, ln.end+delta)
		}
	}
	damage(blob, n, cuts)

	// 1000 random offsets of a stream just long enough for the multi-symbol
	// build on every path.
	n = 2*multiMin + 3
	blob = EncodeLanes(quantCodes(rng, n, 2, true), alphabet)
	cuts = cuts[:0]
	for i := 0; i < 1000; i++ {
		cuts = append(cuts, rng.Intn(len(blob)))
	}
	damage(blob, n, cuts)
}

// FuzzMultiSymbolTable differentially fuzzes the two table builds: on the
// lane encoding of fuzzed symbols both must reproduce them, and on a
// corrupted or truncated copy — and on arbitrary bytes — both must agree on
// failing, or on every symbol.
func FuzzMultiSymbolTable(f *testing.F) {
	f.Add([]byte{}, uint16(4), uint16(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint16(9), uint16(3))
	f.Add(bytes.Repeat([]byte{3}, 300), uint16(16), uint16(20))
	f.Add(bytes.Repeat([]byte{3, 200, 7, 7, 7, 9}, 300), uint16(700), uint16(40))
	f.Add([]byte{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}, uint16(255), uint16(9))
	f.Fuzz(func(t *testing.T, raw []byte, span, hit uint16) {
		alphabet := int(span)%4096 + 1
		codes := make([]uint16, len(raw))
		for i, v := range raw {
			// Squaring skews the histogram: long codes beside short ones.
			codes[i] = uint16(int(v) * int(v) * alphabet / (256 * 256))
		}
		enc := EncodeLanes(codes, alphabet)
		got, err := bothBuilds(t, enc, alphabet)
		if err != nil {
			t.Fatalf("round trip: %v", err)
		}
		if !slices.Equal(got, codes) {
			t.Fatal("round trip differs from the encoded symbols")
		}
		at := int(hit) % len(enc)
		mut := bytes.Clone(enc)
		mut[at] ^= 1 << (hit % 8)
		for _, bad := range [][]byte{mut, enc[:at], raw} {
			_, _ = bothBuilds(t, bad, alphabet)
		}
	})
}
