// Progressive decompression (the paper's Fig. 13 workflow): reconstruct a
// turbulence field at 1/64, 1/8 and full resolution from one compressed
// stream, reporting quality and decode time per level — the "preview first,
// refine later" pattern for datasets too large to decompress in full. It
// exits non-zero unless the full-resolution level is bit-identical to
// core.Decompress and within the error bound.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"stz/internal/core"
	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/metrics"
	"stz/internal/quant"
)

func main() {
	// The Miranda stand-in: a very smooth Rayleigh–Taylor mixing field.
	g := datasets.Miranda(96, 96, 96, 7)
	mn, mx := g.Range()
	eb := quant.AbsoluteBound(1e-3, float64(mn), float64(mx))

	cfg := core.DefaultConfig(eb)
	cfg.Workers = 4
	enc, err := core.Compress(g, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed %d MB to %d KB (CR %.0f)\n",
		g.Len()*4>>20, len(enc)>>10, float64(g.Len()*4)/float64(len(enc)))

	r, err := core.NewReader[float32](enc)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nlevel  resolution      fraction   SSIM(vs full)  time")
	var full *grid.Grid[float32]
	for lv := 1; lv <= 3; lv++ {
		t0 := time.Now()
		rec, err := r.Progressive(lv)
		if err != nil {
			log.Fatal(err)
		}
		el := time.Since(t0)
		full = rec
		// Render-style comparison: upsample the coarse reconstruction to
		// full resolution and compare with the original.
		up := grid.Resize(rec, g.Nz, g.Ny, g.Nx)
		ssim, err := metrics.SSIM3D(g, up)
		if err != nil {
			log.Fatal(err)
		}
		frac := float64(rec.Len()) / float64(g.Len())
		fmt.Printf("  %d    %3dx%3dx%3d    %6.2f%%    %.3f          %v\n",
			lv, rec.Nz, rec.Ny, rec.Nx, frac*100, ssim, el)
	}
	fmt.Println("\nThe coarsest level touches ~1.6% of the data — enough to locate")
	fmt.Println("structures before committing to a full-resolution reconstruction.")

	// The full-resolution level is the full decode, and it holds the bound.
	dec, err := core.Decompress[float32](enc)
	if err != nil {
		log.Fatal(err)
	}
	if len(dec.Data) != len(full.Data) {
		log.Fatalf("Progressive(3) has %d values, core.Decompress %d", len(full.Data), len(dec.Data))
	}
	for i, v := range dec.Data {
		if math.Float32bits(v) != math.Float32bits(full.Data[i]) {
			log.Fatalf("Progressive(3) differs from core.Decompress at value %d", i)
		}
	}
	d, err := metrics.Compare(g, full)
	if err != nil {
		log.Fatal(err)
	}
	if d.MaxErr > eb*(1+1e-9) {
		log.Fatalf("Progressive(3): max error %.3g breaks the bound %.3g", d.MaxErr, eb)
	}
	fmt.Printf("Progressive(3) is bit-identical to core.Decompress; max error %.3g within bound %.3g\n", d.MaxErr, eb)
}
