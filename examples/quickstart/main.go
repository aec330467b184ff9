// Quickstart: compress a synthetic scientific field with STZ, decompress
// it, and verify the error bound — the smallest end-to-end use of the
// public API — then run the same field through every backend in the
// unified codec registry for comparison. It exits non-zero when any
// codec's reconstruction breaks the bound.
package main

import (
	"fmt"
	"log"

	"stz/internal/codec"
	"stz/internal/core"
	"stz/internal/datasets"
	"stz/internal/metrics"
	"stz/internal/quant"
)

func main() {
	// 1. A 64³ cosmology-like field (stand-in for the Nyx baryon density).
	g := datasets.Nyx(64, 64, 64, 42)

	// 2. Pick an error bound: 1e-3 relative to the value range.
	mn, mx := g.Range()
	eb := quant.AbsoluteBound(1e-3, float64(mn), float64(mx))

	// 3. Compress with the default configuration (3 levels, cubic
	//    prediction, adaptive per-level bounds).
	enc, err := core.Compress(g, core.DefaultConfig(eb))
	if err != nil {
		log.Fatal(err)
	}

	// 4. Decompress and measure.
	dec, err := core.Decompress[float32](enc)
	if err != nil {
		log.Fatal(err)
	}
	d, err := metrics.Compare(g, dec)
	if err != nil {
		log.Fatal(err)
	}
	ratio := metrics.Ratio{OriginalBytes: g.Len() * 4, CompressedBytes: len(enc)}

	fmt.Printf("original:    %d bytes (%d×%d×%d float32)\n", g.Len()*4, g.Nz, g.Ny, g.Nx)
	fmt.Printf("compressed:  %d bytes  (CR %.1f, %.2f bits/value)\n",
		len(enc), ratio.CR(), ratio.BitRate(4))
	fmt.Printf("PSNR:        %.1f dB\n", d.PSNR)
	fmt.Printf("max error:   %.3g (bound %.3g)\n", d.MaxErr, eb)
	checkBound("stz", d.MaxErr, eb)

	// 5. The same grid through every registered backend, via the unified
	//    chunk-parallel pipeline (what `stz compress -codec <name>` runs).
	fmt.Println("\nregistry backends at the same bound:")
	for _, name := range codec.Names() {
		enc, err := codec.Encode(name, g, codec.Config{EB: eb, Workers: 4})
		if err != nil {
			log.Fatal(err)
		}
		dec, err := codec.Decode[float32](enc, 4)
		if err != nil {
			log.Fatal(err)
		}
		d, err := metrics.Compare(g, dec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-6s CR %5.1f   PSNR %5.1f dB   max error %.3g\n",
			name, float64(g.Len()*4)/float64(len(enc)), d.PSNR, d.MaxErr)
		checkBound(name, d.MaxErr, eb)
	}
}

// checkBound stops the program when the named codec's max error breaks the
// bound eb, with the relative slack bench.Run allows for float rounding.
func checkBound(name string, maxErr, eb float64) {
	if maxErr > eb*(1+1e-9) {
		log.Fatalf("%s: max error %.3g breaks the bound %.3g", name, maxErr, eb)
	}
}
