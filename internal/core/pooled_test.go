package core

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/scratch"
	"stz/internal/scratch/scratchtest"
)

// stzPoolConfigs are the STZ configurations whose hot paths touch the
// scratch arenas in distinct ways: the default fused quantizing path, the
// chunked-codes random-access layout, and the SZ3-residual ablation.
func stzPoolConfigs() map[string]Config {
	def := DefaultConfig(1e-3)
	def.Workers = 4
	cc := DefaultConfig(1e-3)
	cc.CodeChunk = 2048
	cc.Workers = 4
	rs := DefaultConfig(1e-3)
	rs.Residual = ResidSZ3
	rs.Workers = 4
	return map[string]Config{"default": def, "codechunk": cc, "residsz3": rs}
}

// TestCorePooledMatchesUnpooled asserts, for each configuration and under
// concurrency, that STZ archives and reconstructions with the scratch
// arenas active are byte-identical to the unpooled path.
func TestCorePooledMatchesUnpooled(t *testing.T) {
	g := datasets.Nyx(33, 31, 38, 9)
	cfgs := stzPoolConfigs()

	prev := scratch.SetEnabled(false)
	refArc := map[string][]byte{}
	refDec := map[string][]float32{}
	for name, cfg := range cfgs {
		enc, err := Compress(g, cfg)
		if err != nil {
			t.Fatalf("%s: reference compress: %v", name, err)
		}
		dec, err := Decompress[float32](enc)
		if err != nil {
			t.Fatalf("%s: reference decompress: %v", name, err)
		}
		refArc[name], refDec[name] = enc, dec.Data
	}
	scratch.SetEnabled(true)
	defer scratch.SetEnabled(prev)

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name, cfg := range cfgs {
				for r := 0; r < 3; r++ {
					enc, err := Compress(g, cfg)
					if err != nil {
						errc <- fmt.Errorf("%s: compress: %v", name, err)
						return
					}
					if !bytes.Equal(enc, refArc[name]) {
						errc <- fmt.Errorf("%s: pooled archive differs", name)
						return
					}
					dec, err := Decompress[float32](enc)
					if err != nil {
						errc <- fmt.Errorf("%s: decompress: %v", name, err)
						return
					}
					for i := range dec.Data {
						if math.Float32bits(dec.Data[i]) != math.Float32bits(refDec[name][i]) {
							errc <- fmt.Errorf("%s: pooled reconstruction differs at %d", name, i)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestCoreRandomAccessPooled covers the random-access decode paths that
// leave part of a leased code buffer unwritten — skipped chunks of a
// chunked stream, skipped lanes and lane tails of a multi-lane one —
// against the unpooled result, with the arenas poisoned before every
// decode (all-ones codes are an in-range symbol that dequantizes to
// garbage): no box may read a code its decode skipped.
func TestCoreRandomAccessPooled(t *testing.T) {
	g := datasets.Nyx(40, 36, 44, 3)
	chunked := DefaultConfig(1e-3)
	chunked.CodeChunk = 512
	boxes := []grid.Box{
		{Z0: 5, Z1: 30, Y0: 3, Y1: 20, X0: 7, X1: 33},
		{Z0: 23, Z1: 29, Y0: 0, Y1: 36, X0: 0, X1: 44}, // third z-quarter: lanes 0 and 1 skipped
		{Z0: 38, Z1: 39, Y0: 30, Y1: 31, X0: 40, X1: 41},
	}
	for name, cfg := range map[string]Config{"codechunk": chunked, "lanes": DefaultConfig(1e-3)} {
		enc, err := Compress(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, box := range boxes {
			prev := scratch.SetEnabled(false)
			r1, err := NewReader[float32](enc)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := r1.DecompressBox(box)
			scratch.SetEnabled(true)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				scratchtest.Poison(g.Len())
				r2, err := NewReader[float32](enc)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := r2.DecompressBox(box)
				if err != nil {
					t.Fatal(err)
				}
				for j := range want.Data {
					if math.Float32bits(got.Data[j]) != math.Float32bits(want.Data[j]) {
						t.Fatalf("%s %+v: pooled random-access decode differs at %d (round %d)", name, box, j, i)
					}
				}
			}
			scratch.SetEnabled(prev)
		}
	}
}

// TestCraftedCodeChunkHeaderBounded patches the stored CodeChunk to a huge
// value: decode must fail cleanly (or succeed byte-identically when the
// chunk layout stays consistent) without attempting a CodeChunk-sized
// allocation — the staging lease is capped at the class size.
func TestCraftedCodeChunkHeaderBounded(t *testing.T) {
	g := datasets.Nyx(32, 30, 34, 1)
	cfg := DefaultConfig(1e-3)
	cfg.CodeChunk = 512
	enc, err := Compress(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), enc...)
	// Section 0 starts after the container directory (8 + 8*nSections + 4
	// bytes); CodeChunk is the uint32 at offset 40 of the header payload.
	arcSections := 2 + (cfg.Levels-1)*7
	hdrOff := 8 + 8*arcSections + 4
	for i := 0; i < 4; i++ {
		mut[hdrOff+40+i] = 0xFF
	}
	if _, err := Decompress[float32](mut); err == nil {
		t.Fatal("huge CodeChunk with stale chunk layout accepted")
	}
}

// leaseBalance returns, per arena, leases minus releases so far.
func leaseBalance() map[string]int64 {
	out := map[string]int64{}
	for name, s := range scratch.All() {
		out[name] = int64(s.Hits+s.Misses) - int64(s.Releases+s.Discards)
	}
	return out
}

// TestCompressLeaseBalance: Compress hands back every scratch buffer it
// leases — the level-1 verify grid and, on a field whose escapes outgrow
// their first lease, the re-leased escape buffers included. A lease dropped
// (or a foreign slice released) on any path shows as a per-arena imbalance
// over 10 calls.
func TestCompressLeaseBalance(t *testing.T) {
	prev := scratch.SetEnabled(true)
	defer scratch.SetEnabled(prev)
	run := func(name string, compress func() error) {
		t.Helper()
		if err := compress(); err != nil { // warm: first-call growth is not steady state
			t.Fatalf("%s: %v", name, err)
		}
		before := leaseBalance()
		for i := 0; i < 10; i++ {
			if err := compress(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for arena, b := range leaseBalance() {
			if d := b - before[arena]; d != 0 {
				t.Errorf("%s: arena %s leased %+d more buffers than it got back over 10 calls", name, arena, d)
			}
		}
	}
	g := datasets.Nyx(33, 31, 38, 9)
	for name, cfg := range stzPoolConfigs() {
		run(name, func() error { _, err := Compress(g, cfg); return err })
	}
	for _, wc := range walkerCases() {
		if wc.name != "L3-f64-outliers" {
			continue
		}
		for _, workers := range []int{1, 4} {
			wc.cfg.Workers = workers
			field := caseField[float64](wc)
			run(fmt.Sprintf("%s/w%d", wc.name, workers), func() error { _, err := Compress(field, wc.cfg); return err })
		}
	}
}
