package codec

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

// pooledRefArchives computes, with pooling disabled, the reference archive
// and decoded values for every registry codec — the exact bytes the
// pre-pool code path produced.
func pooledRefArchives(t *testing.T, g *grid.Grid[float32], cfg Config) (map[string][]byte, map[string][]float32) {
	t.Helper()
	prev := scratch.SetEnabled(false)
	defer scratch.SetEnabled(prev)
	archives := map[string][]byte{}
	decoded := map[string][]float32{}
	for _, name := range Names() {
		enc, err := Encode(name, g, cfg)
		if err != nil {
			t.Fatalf("%s: reference encode: %v", name, err)
		}
		dec, err := Decode[float32](enc, cfg.Workers)
		if err != nil {
			t.Fatalf("%s: reference decode: %v", name, err)
		}
		archives[name] = enc
		decoded[name] = dec.Data
	}
	return archives, decoded
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPooledMatchesUnpooledConcurrent runs concurrent encode/decode round
// trips across every registry codec with the scratch arenas active and
// asserts the archives and reconstructions are byte-identical to the
// unpooled path. Run under -race in CI, it is the safety net for the
// lease/release discipline of the whole pipeline.
func TestPooledMatchesUnpooledConcurrent(t *testing.T) {
	g := datasets.Nyx(33, 31, 38, 5)
	cfg := Config{EB: 1e-3, Workers: 4, Chunks: 3}
	refArc, refDec := pooledRefArchives(t, g, cfg)

	prev := scratch.SetEnabled(true)
	defer scratch.SetEnabled(prev)

	const goroutines = 8
	const rounds = 6
	names := Names()
	errc := make(chan error, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				name := names[(w+r)%len(names)]
				enc, err := Encode(name, g, cfg)
				if err != nil {
					errc <- fmt.Errorf("%s: encode: %v", name, err)
					return
				}
				if !bytes.Equal(enc, refArc[name]) {
					errc <- fmt.Errorf("%s: pooled archive differs from unpooled reference", name)
					return
				}
				dec, err := Decode[float32](enc, cfg.Workers)
				if err != nil {
					errc <- fmt.Errorf("%s: decode: %v", name, err)
					return
				}
				if !sameBits(dec.Data, refDec[name]) {
					errc <- fmt.Errorf("%s: pooled reconstruction differs from unpooled reference", name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestPoisonedLeaseNeverLeaks fills the pools with poisoned buffers before
// each round trip: if any hot path reads leased memory before writing it,
// the poison shows up as an archive or value difference.
func TestPoisonedLeaseNeverLeaks(t *testing.T) {
	g := datasets.Nyx(33, 31, 38, 5)
	cfg := Config{EB: 1e-3, Workers: 4, Chunks: 3}
	refArc, refDec := pooledRefArchives(t, g, cfg)
	// An interior window that crosses both chunk boundaries (planes 11, 22).
	box := grid.Box{Z0: 5, Y0: 9, X0: 14, Z1: 29, Y1: 23, X1: 31}
	refWin := map[string][]float32{}
	for name, dec := range refDec {
		full, err := grid.FromData(dec, g.Nz, g.Ny, g.Nx)
		if err != nil {
			t.Fatal(err)
		}
		refWin[name] = full.ExtractBox(box).Data
	}

	prev := scratch.SetEnabled(true)
	defer scratch.SetEnabled(prev)
	for round := 0; round < 3; round++ {
		for _, name := range Names() {
			scratchtest.Poison(4 * g.Len())
			enc, err := Encode(name, g, cfg)
			if err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			if !bytes.Equal(enc, refArc[name]) {
				t.Fatalf("%s: poisoned lease leaked into the archive (round %d)", name, round)
			}
			scratchtest.Poison(4 * g.Len())
			dec, err := Decode[float32](enc, cfg.Workers)
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			if !sameBits(dec.Data, refDec[name]) {
				t.Fatalf("%s: poisoned lease leaked into the reconstruction (round %d)", name, round)
			}
			// A box decode may leave its work grid dirty outside the box's
			// dependency cone (sz3): the window itself must not show it.
			scratchtest.Poison(4 * g.Len())
			r, err := OpenReaderAt[float32](enc)
			if err != nil {
				t.Fatalf("%s: open: %v", name, err)
			}
			win, err := r.DecompressBox(box)
			if err != nil {
				t.Fatalf("%s: box decode: %v", name, err)
			}
			if !sameBits(win.Data, refWin[name]) {
				t.Fatalf("%s: poisoned lease leaked into the box window (round %d)", name, round)
			}
		}
	}
}
