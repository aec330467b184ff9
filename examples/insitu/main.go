// In-situ pipeline: a time-stepping simulation compresses every snapshot
// as it is produced (the paper's motivating scenario — storage bandwidth
// cannot keep up with compute). Each step's field is compressed with the
// parallel mode, streamed to storage, and per-step statistics are logged.
// The compressor is selected with -codec, any name in the unified registry
// (stz, the default; sz3, zfp, sperr, mgard): the in-situ loop swaps
// compressors without code changes, and restart tooling needs no codec
// bookkeeping because the archive header names its codec.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"time"

	"stz/internal/codec"
	_ "stz/internal/core" // registers the paper's codec, "stz"
	"stz/internal/grid"
	"stz/internal/metrics"
	"stz/internal/quant"
)

var flagCodec = flag.String("codec", "stz", "registry codec: stz, sz3, zfp, sperr or mgard")

// simulate advances a toy advection–diffusion field one step.
func simulate(g *grid.Grid[float32], step int) {
	next := grid.New[float32](g.Nz, g.Ny, g.Nx)
	for z := 0; z < g.Nz; z++ {
		for y := 0; y < g.Ny; y++ {
			for x := 0; x < g.Nx; x++ {
				// Diffusion: local average; advection: shift along x.
				xs := (x - 1 + g.Nx) % g.Nx
				v := 0.6*g.At(z, y, xs) + 0.4*g.At(z, y, x)
				if z > 0 && z < g.Nz-1 {
					v = 0.8*v + 0.1*(g.At(z-1, y, x)+g.At(z+1, y, x))
				}
				next.Set(z, y, x, v)
			}
		}
	}
	copy(g.Data, next.Data)
}

func main() {
	flag.Parse()
	const steps = 5
	dir, err := os.MkdirTemp("", "stz-insitu")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Initial condition: a hot blob plus a sinusoidal background.
	g := grid.New[float32](48, 48, 48)
	for z := 0; z < g.Nz; z++ {
		for y := 0; y < g.Ny; y++ {
			for x := 0; x < g.Nx; x++ {
				dz, dy, dx := float64(z-24), float64(y-24), float64(x-12)
				blob := 10 * math.Exp(-(dz*dz+dy*dy+dx*dx)/60)
				g.Set(z, y, x, float32(blob+math.Sin(float64(x)/5)))
			}
		}
	}

	fmt.Println("step   raw      compressed   CR      PSNR    comp.time")
	var totalRaw, totalComp int
	for step := 0; step < steps; step++ {
		simulate(g, step)
		mn, mx := g.Range()
		eb := quant.AbsoluteBound(1e-3, float64(mn), float64(mx))

		t0 := time.Now()
		enc, err := codec.Encode(*flagCodec, g, codec.Config{EB: eb, Workers: 4})
		if err != nil {
			log.Fatal(err)
		}
		el := time.Since(t0)
		path := filepath.Join(dir, fmt.Sprintf("snap%03d.stz", step))
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			log.Fatal(err)
		}

		dec, err := codec.Decode[float32](enc, 4)
		if err != nil {
			log.Fatal(err)
		}
		d, _ := metrics.Compare(g, dec)
		raw := g.Len() * 4
		totalRaw += raw
		totalComp += len(enc)
		fmt.Printf("%4d   %4d KB   %7d B   %5.1f   %5.1f   %v\n",
			step, raw>>10, len(enc), float64(raw)/float64(len(enc)), d.PSNR, el)
	}
	fmt.Printf("\ntotal: %d KB raw -> %d KB compressed (CR %.1f) across %d snapshots\n",
		totalRaw>>10, totalComp>>10, float64(totalRaw)/float64(totalComp), steps)
	if caps := codec.MustLookup(*flagCodec).Caps(); caps.Progressive && caps.RandomAccess {
		fmt.Println("Every snapshot remains progressively and randomly accessible on disk.")
	}
}
