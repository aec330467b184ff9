package huffman

import (
	"bytes"
	"math/rand"
	"testing"
)

// laneRoundTrip checks the v2 payload against the v1 reference path: both
// must reproduce the input, on the interleaved and the parallel decoders.
func laneRoundTrip(t *testing.T, codes []uint16, alphabet int) []byte {
	t.Helper()
	ref, err := DecodeInto(nil, Encode(codes, alphabet), alphabet)
	if err != nil {
		t.Fatalf("v1 reference decode: %v", err)
	}
	enc := EncodeLanes(codes, alphabet)
	for _, workers := range []int{1, 4} {
		dec, err := DecodeLanesInto(nil, enc, alphabet, workers)
		if err != nil {
			t.Fatalf("lanes decode (workers=%d): %v", workers, err)
		}
		if len(dec) != len(codes) {
			t.Fatalf("workers=%d: length %d want %d", workers, len(dec), len(codes))
		}
		for i := range codes {
			if dec[i] != codes[i] || dec[i] != ref[i] {
				t.Fatalf("workers=%d: symbol %d: got %d want %d (v1 ref %d)",
					workers, i, dec[i], codes[i], ref[i])
			}
		}
	}
	return enc
}

func TestLanesEmpty(t *testing.T) {
	laneRoundTrip(t, nil, 16)
}

func TestLanesSmall(t *testing.T) {
	// Fewer symbols than lanes: some lanes are empty.
	for n := 1; n < 12; n++ {
		codes := make([]uint16, n)
		for i := range codes {
			codes[i] = uint16(i % 5)
		}
		laneRoundTrip(t, codes, 8)
	}
}

func TestLanesSingleSymbol(t *testing.T) {
	codes := make([]uint16, 1000)
	for i := range codes {
		codes[i] = 7
	}
	enc := laneRoundTrip(t, codes, 16)
	if len(enc) > 220 {
		t.Fatalf("single-symbol lane stream too large: %d bytes", len(enc))
	}
}

func TestLanesSkewedDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	codes := make([]uint16, 50000)
	for i := range codes {
		v := 512 + int(rng.NormFloat64()*3)
		if v < 0 {
			v = 0
		}
		if v > 1023 {
			v = 1023
		}
		codes[i] = uint16(v)
	}
	v1 := Encode(codes, 1024)
	v2 := laneRoundTrip(t, codes, 1024)
	// The lane layout costs only the directory and up to 4 bytes of lane
	// padding over v1.
	if len(v2) > len(v1)+32 {
		t.Fatalf("lane overhead too large: v1=%d v2=%d", len(v1), len(v2))
	}
}

func TestLanesLargeParallel(t *testing.T) {
	// Above laneParallelMin so the parallel.For path actually runs.
	rng := rand.New(rand.NewSource(5))
	codes := make([]uint16, laneParallelMin+1234)
	for i := range codes {
		codes[i] = uint16(rng.Intn(300))
	}
	laneRoundTrip(t, codes, 512)
}

func TestLanesDeepCodes(t *testing.T) {
	// Fibonacci counts force near-maximal code depth, exercising the
	// slow-path canonical walk inside the fast batch loop.
	const n = 40
	var codes []uint16
	a, b := 1, 1
	for sym := 0; sym < n; sym++ {
		for r := 0; r < a%61; r++ {
			codes = append(codes, uint16(sym))
		}
		a, b = b, a+b
	}
	laneRoundTrip(t, codes, n)
}

func TestLanesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	codes := make([]uint16, 5000)
	for i := range codes {
		codes[i] = uint16(rng.Intn(256))
	}
	if !bytes.Equal(EncodeLanes(codes, 256), EncodeLanes(codes, 256)) {
		t.Fatal("lane encoding is not deterministic")
	}
}

func TestLanesCorruptAndTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	codes := make([]uint16, 4000)
	for i := range codes {
		codes[i] = uint16(rng.Intn(100))
	}
	enc := EncodeLanes(codes, 100)
	for cut := 0; cut < len(enc); cut += 5 {
		if _, err := DecodeLanesInto(nil, enc[:cut], 100, 1); err == nil && cut < len(enc)/2 {
			t.Fatalf("truncation at %d of %d not detected", cut, len(enc))
		}
	}
	for i := 0; i < len(enc); i++ {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0xff
		// Must not panic; error or wrong data are both acceptable.
		_, _ = DecodeLanesInto(nil, mut, 100, 1)
		_, _ = DecodeLanesInto(nil, mut, 100, 4)
	}
}

// FuzzHuffmanLanes differentially fuzzes the v2 lane codec against the v1
// reference: both paths must reproduce the input symbols, and the
// interleaved and parallel lane decoders must agree.
func FuzzHuffmanLanes(f *testing.F) {
	f.Add([]byte{}, uint16(4))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint16(9))
	f.Add(bytes.Repeat([]byte{3}, 300), uint16(16))
	f.Add([]byte{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233}, uint16(255))
	f.Fuzz(func(t *testing.T, raw []byte, span uint16) {
		alphabet := int(span)%2048 + 1
		codes := make([]uint16, len(raw))
		for i, b := range raw {
			codes[i] = uint16(int(b) * alphabet / 256)
		}
		ref, err := DecodeInto(nil, Encode(codes, alphabet), alphabet)
		if err != nil {
			t.Fatalf("v1 round trip: %v", err)
		}
		enc := EncodeLanes(codes, alphabet)
		for _, workers := range []int{1, 4} {
			dec, err := DecodeLanesInto(nil, enc, alphabet, workers)
			if err != nil {
				t.Fatalf("lanes decode (workers=%d): %v", workers, err)
			}
			if len(dec) != len(ref) {
				t.Fatalf("workers=%d: length %d want %d", workers, len(dec), len(ref))
			}
			for i := range ref {
				if dec[i] != ref[i] {
					t.Fatalf("workers=%d: symbol %d: lanes %d, v1 reference %d",
						workers, i, dec[i], ref[i])
				}
			}
		}
	})
}

// FuzzDecodeLanes throws arbitrary bytes at the lane decoder: it must
// error or succeed but never panic or read out of bounds.
func FuzzDecodeLanes(f *testing.F) {
	seed := EncodeLanes([]uint16{1, 2, 3, 4, 5, 6, 7, 8, 9}, 16)
	f.Add(seed, uint16(16))
	f.Add([]byte{0xff, 0xff, 0xff}, uint16(4))
	f.Fuzz(func(t *testing.T, data []byte, span uint16) {
		alphabet := int(span)%4096 + 1
		_, _ = DecodeLanesInto(nil, data, alphabet, 1)
		_, _ = DecodeLanesInto(nil, data, alphabet, 4)
	})
}
