package main

import (
	"fmt"
	"time"

	"stz/internal/bench"
	"stz/internal/codec"
	"stz/internal/core"
	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/metrics"
	"stz/internal/roi"
)

// dimsFor returns the harness dims for a dataset spec at the chosen scale.
func dimsFor(s datasets.Spec) [3]int {
	d := s.BenchDims
	if *flagScale == "tiny" {
		for i := range d {
			d[i] /= 4
			if d[i] < 16 {
				d[i] = 16
			}
		}
	}
	return d
}

// gen32 materializes a float32 dataset at harness scale.
func gen32(s datasets.Spec) *grid.Grid[float32] {
	d := dimsFor(s)
	return s.Generate32(d[0], d[1], d[2], s.Seed)
}

// gen64 materializes a float64 dataset at harness scale.
func gen64(s datasets.Spec) *grid.Grid[float64] {
	d := dimsFor(s)
	return s.Generate64(d[0], d[1], d[2], s.Seed)
}

// ebSweep is the relative-error-bound sweep used by the rate-distortion
// experiments; it spans the paper's CR range (tens to several hundred).
var ebSweep = []float64{2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2}

// ---------------------------------------------------------------- table 1

func expTable1() error {
	header("table1", "Features of different compressors (Table 1)")
	row("Compressor", "Progressive", "RandomAccess", "Par.Decomp")
	for _, c := range bench.Codecs[float32]() {
		row(c.Name, yn(c.Progressive), yn(c.RandomAccess), yn(c.ParallelDecompress))
	}
	fmt.Println("\nSpeed and quality rows of Table 1 are measured by table3 and fig11.")
	return nil
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// ---------------------------------------------------------------- table 2

func expTable2() error {
	header("table2", "Tested datasets (Table 2; synthetic stand-ins)")
	row("Dataset", "Type", "PaperDims", "HarnessDims", "Size", "Domain")
	for _, s := range datasets.All() {
		d := dimsFor(s)
		sz := d[0] * d[1] * d[2] * s.ElemBytes
		row(s.Name, s.DType,
			fmt.Sprintf("%dx%dx%d", s.PaperDims[0], s.PaperDims[1], s.PaperDims[2]),
			fmt.Sprintf("%dx%dx%d", d[0], d[1], d[2]),
			fmt.Sprintf("%d MB", sz>>20), s.Domain)
	}
	return nil
}

// ------------------------------------------------------------------ fig 3

func expFig3() error {
	header("fig3", "Matched-CR quality on Nyx: Partition vs SZ3 vs STZ (Fig. 3)")
	g := gen32(datasets.All()[0])
	const targetCR = 205

	variants := []bench.Codec[float32]{
		bench.STZVariant[float32]("Partition", func(eb float64) core.Config {
			c := core.DefaultConfig(eb)
			c.PartitionOnly = true
			return c
		}),
		sz3Codec32(),
		bench.STZ[float32](),
	}
	row("Method", "CR", "PSNR", "SSIM")
	for _, v := range variants {
		_, r, err := bench.EBForTargetCR(v, g, targetCR, *flagWorkers)
		if err != nil {
			return err
		}
		// SSIM needs a fresh run at the found bound.
		full, err := bench.Run(v, g, r.EBRel, *flagWorkers, true)
		if err != nil {
			return err
		}
		row(v.Name, f1(full.CR), f1(full.PSNR), f3(full.SSIM))
	}
	fmt.Println("\nPaper: Partition SSIM=0.67/PSNR=107, SZ3 0.95/118, STZ 0.95/120 at CR≈205.")
	return nil
}

func sz3Codec32() bench.Codec[float32] {
	for _, c := range bench.Codecs[float32]() {
		if c.Name == "SZ3" {
			return c
		}
	}
	panic("SZ3 codec missing")
}

// ------------------------------------------------------------------ fig 5

// fig5Variants returns the ablation ladder of Fig. 5 in paper order.
func fig5Variants() []bench.Codec[float32] {
	mk := bench.STZVariant[float32]
	return []bench.Codec[float32]{
		mk("Partition", func(eb float64) core.Config {
			c := core.DefaultConfig(eb)
			c.PartitionOnly = true
			return c
		}),
		mk("Direct pred", func(eb float64) core.Config {
			return core.Config{EB: eb, Levels: 2, Predictor: core.PredDirect, Residual: core.ResidSZ3}
		}),
		mk("Multi-dim Interp", func(eb float64) core.Config {
			return core.Config{EB: eb, Levels: 2, Predictor: core.PredLinear, Residual: core.ResidSZ3}
		}),
		mk("Multi-dim + Qt", func(eb float64) core.Config {
			return core.Config{EB: eb, Levels: 2, Predictor: core.PredLinear, Residual: core.ResidQuant}
		}),
		mk("Cubic-Multi + Qt", func(eb float64) core.Config {
			return core.Config{EB: eb, Levels: 2, Predictor: core.PredCubic, Residual: core.ResidQuant}
		}),
		mk("Cubic-Multi-Qt + Adp", func(eb float64) core.Config {
			return core.Config{EB: eb, Levels: 2, Predictor: core.PredCubic, Residual: core.ResidQuant,
				AdaptiveEB: true, EBRatio: 2.5}
		}),
		mk("3-level + All", core.DefaultConfig),
	}
}

func expFig5() error {
	header("fig5", "Ablation rate-distortion on Nyx (Fig. 5)")
	g := gen32(datasets.All()[0])
	variants := append(fig5Variants(), sz3Codec32())
	for _, v := range variants {
		fmt.Printf("\n%s:\n", v.Name)
		row("  eb(rel)", "CR", "PSNR")
		for _, eb := range ebSweep {
			r, err := bench.Run(v, g, eb, *flagWorkers, false)
			if err != nil {
				return fmt.Errorf("%s eb=%g: %w", v.Name, eb, err)
			}
			row(fmt.Sprintf("  %g", eb), f1(r.CR), f1(r.PSNR))
		}
	}
	return nil
}

// ----------------------------------------------------------------- fig 10

func expFig10() error {
	header("fig10", "ROI extraction on Nyx halos (Fig. 10)")
	g := gen32(datasets.All()[0])
	const haloThresh = 81.66

	regions, err := roi.ScanBlocks(g, 4, roi.MaxValue)
	if err != nil {
		return err
	}
	sel := roi.Threshold(regions, haloThresh)
	covered, total := roi.PointCoverage(g, sel, haloThresh)
	cov := roi.Coverage(g, sel)
	fmt.Printf("max-value threshold %.2f: %d/%d blocks selected, %.2f%% of volume\n",
		haloThresh, len(sel), len(regions), cov*100)
	fmt.Printf("halo point recall: %d/%d\n", covered, total)
	fmt.Println("Paper: 0.69% of the dataset captures all halos.")

	// Decompress only the selected ROI boxes via random access and compare
	// against a full decompression.
	enc, err := core.Compress(g, core.DefaultConfig(0.1))
	if err != nil {
		return err
	}
	r, err := core.NewReader[float32](enc)
	if err != nil {
		return err
	}
	r.Workers = *flagWorkers
	t0 := time.Now()
	if _, _, err := r.DecompressStats(); err != nil {
		return err
	}
	fullT := time.Since(t0)
	t1 := time.Now()
	boxes := make([]grid.Box, len(sel))
	for i, reg := range sel {
		// The selector emits clipped in-grid boxes; validate through the
		// codec layer's uniform checker rather than trusting that.
		if err := codec.CheckBox(reg.Box, g.Nz, g.Ny, g.Nx); err != nil {
			return err
		}
		boxes[i] = reg.Box
	}
	if _, _, err := r.DecompressBoxes(boxes); err != nil {
		return err
	}
	roiT := time.Since(t1)
	fmt.Printf("full decompression: %v; ROI-only decompression (%d boxes): %v (%.1f%%)\n",
		fullT, len(sel), roiT, 100*float64(roiT)/float64(fullT))
	return nil
}

// ----------------------------------------------------------------- fig 11

func expFig11() error {
	header("fig11", "Rate-distortion of 5 compressors on 4 datasets (Fig. 11)")
	for _, s := range datasets.All() {
		fmt.Printf("\n--- %s ---\n", s.Name)
		if s.DType == "float32" {
			if err := rdFor(gen32(s)); err != nil {
				return fmt.Errorf("%s: %w", s.Name, err)
			}
		} else {
			if err := rdFor(gen64(s)); err != nil {
				return fmt.Errorf("%s: %w", s.Name, err)
			}
		}
	}
	return nil
}

func rdFor[T grid.Float](g *grid.Grid[T]) error {
	for _, c := range bench.Codecs[T]() {
		fmt.Printf("%s:\n", c.Name)
		row("  eb(rel)", "CR", "PSNR")
		for _, eb := range ebSweep {
			r, err := bench.Run(c, g, eb, *flagWorkers, false)
			if err != nil {
				return err
			}
			row(fmt.Sprintf("  %g", eb), f1(r.CR), f1(r.PSNR))
		}
	}
	return nil
}

// ----------------------------------------------------------------- fig 12

func expFig12() error {
	header("fig12", "Matched-CR visual quality on WarpX and Mag_Rec (Fig. 12)")
	specs := datasets.All()
	cases := []struct {
		spec     datasets.Spec
		targetCR float64
	}{
		{specs[1], 297}, // WarpX
		{specs[2], 215}, // Magnetic Reconnection
	}
	for _, cs := range cases {
		fmt.Printf("\n--- %s (target CR %.0f) ---\n", cs.spec.Name, cs.targetCR)
		row("Compressor", "CR", "PSNR", "SSIM")
		if cs.spec.DType == "float32" {
			if err := matchedCR(gen32(cs.spec), cs.targetCR); err != nil {
				return err
			}
		} else {
			if err := matchedCR(gen64(cs.spec), cs.targetCR); err != nil {
				return err
			}
		}
	}
	fmt.Println("\nPaper (WarpX): ZFP 0.53/61@261, MGARD 0.85/76, SZ3 0.98/96.8, SPERR 0.98/96.1, STZ 0.99/96.5.")
	fmt.Println("Paper (MagRec): ZFP 0.63/46@194, MGARD 0.79/51.2, SZ3 0.83/51.6, SPERR 0.89/57.8, STZ 0.83/52.4.")
	return nil
}

func matchedCR[T grid.Float](g *grid.Grid[T], target float64) error {
	for _, c := range bench.Codecs[T]() {
		ebRel, r, err := bench.EBForTargetCR(c, g, target, *flagWorkers)
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		full, err := bench.Run(c, g, ebRel, *flagWorkers, true)
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		_ = r
		row(c.Name, f1(full.CR), f1(full.PSNR), f3(full.SSIM))
	}
	return nil
}

// ---------------------------------------------------------------- table 3

func expTable3() error {
	header("table3", "Compression/decompression times, serial and parallel (Table 3)")
	const ebRel = 1e-3
	for _, s := range datasets.All() {
		fmt.Printf("\n--- %s (eb(rel)=%g) ---\n", s.Name, ebRel)
		row("Compressor", "Comp(ser)", "Comp(par)", "Dec(ser)", "Dec(par)", "CR(ser)", "CR(par)")
		if s.DType == "float32" {
			if err := timing(gen32(s), ebRel); err != nil {
				return fmt.Errorf("%s: %w", s.Name, err)
			}
		} else {
			if err := timing(gen64(s), ebRel); err != nil {
				return fmt.Errorf("%s: %w", s.Name, err)
			}
		}
	}
	fmt.Println("\nNote: as in the paper, SZ3's parallel (chunked) mode can lower its CR,")
	fmt.Println("and ZFP/MGARDX have no parallel decompression mode.")
	return nil
}

func timing[T grid.Float](g *grid.Grid[T], ebRel float64) error {
	for _, c := range bench.Codecs[T]() {
		ser, err := bench.Run(c, g, ebRel, 1, false)
		if err != nil {
			return fmt.Errorf("%s serial: %w", c.Name, err)
		}
		par, err := bench.Run(c, g, ebRel, *flagWorkers, false)
		if err != nil {
			return fmt.Errorf("%s parallel: %w", c.Name, err)
		}
		decPar := dur(par.DecompressTime)
		if !c.ParallelDecompress {
			decPar = "N/A"
		}
		row(c.Name, dur(ser.CompressTime), dur(par.CompressTime),
			dur(ser.DecompressTime), decPar, f1(ser.CR), f1(par.CR))
	}
	return nil
}

// ---------------------------------------------------------------- table 4

func expTable4() error {
	header("table4", "Random-access decompression time breakdown on Miranda (Table 4)")
	spec := datasets.All()[3]
	g := gen32(spec)
	cfg := config4(g)
	cfg.Workers = 1 // the paper's Table 4 is serial
	enc, stEnc, err := core.CompressStats(g, cfg)
	if err != nil {
		return err
	}
	r, err := core.NewReader[float32](enc)
	if err != nil {
		return err
	}
	r.Workers = 1

	full, stFull, err := r.DecompressStats()
	if err != nil {
		return err
	}
	_ = full

	// A 3D ROI box scaled like the paper's 100³ of 1024³ (~10% per axis).
	bz, by, bx := g.Nz/10, g.Ny/10, g.Nx/10
	if bz < 4 {
		bz, by, bx = 4, 4, 4
	}
	box := grid.Box{Z0: g.Nz / 3, Y0: g.Ny / 3, X0: g.Nx / 3,
		Z1: g.Nz/3 + bz, Y1: g.Ny/3 + by, X1: g.Nx/3 + bx}
	if err := codec.CheckBox(box, g.Nz, g.Ny, g.Nx); err != nil {
		return err
	}
	_, stBox, err := r.DecompressBox(box)
	if err != nil {
		return err
	}

	// A full 2D slice (even z, the paper's decode-savings case).
	_, stSlice, err := r.DecompressSliceZ(g.Nz / 2)
	if err != nil {
		return err
	}

	row("Case", "L1 SZ3", "L2 dec", "L2 pre", "L2 rec", "L3 dec", "L3 pre", "L3 rec", "Sum")
	printStats := func(name string, st *core.Stats) {
		row(name, dur(st.L1SZ3),
			dur(st.LevelDecode[0]), dur(st.LevelPredict[0]), dur(st.LevelRecon[0]),
			dur(st.LevelDecode[1]), dur(st.LevelPredict[1]), dur(st.LevelRecon[1]),
			dur(st.Total))
	}
	printStats("All", stFull)
	printStats("Box", stBox)
	printStats("Slice", stSlice)
	// The write side of the same stream, stage for stage: predict+quantise
	// (qnt) mirrors pre, entropy coding (ent) mirrors dec; pln is the part
	// of ent spent planning (histograms, code tables, section framing), the
	// rest of it writes the lanes.
	fmt.Println()
	row("Case", "Chain", "L1 enc", "L2 qnt", "L2 ent", "L2 pln", "L3 qnt", "L3 ent", "L3 pln", "Asm", "Sum")
	row("Write", dur(stEnc.Chain), dur(stEnc.L1Encode),
		dur(stEnc.Quantise[0]), dur(stEnc.Entropy[0]), dur(stEnc.Plan[0]),
		dur(stEnc.Quantise[1]), dur(stEnc.Entropy[1]), dur(stEnc.Plan[1]),
		dur(stEnc.Assemble), dur(stEnc.Total))
	fmt.Printf("\nSlice decoded %d/7 level-3 class streams (paper: 3 of 7 → up to 57%% decode savings).\n",
		stSlice.DecodedClasses[1])
	fmt.Printf("Overall: box %.1f%% of full time, slice %.1f%% of full time.\n",
		100*float64(stBox.Total)/float64(stFull.Total),
		100*float64(stSlice.Total)/float64(stFull.Total))
	fmt.Println("Paper: box 3.8s vs 11.7s (32%), slice 2.1s vs 11.7s (18%).")
	return nil
}

func config4(g *grid.Grid[float32]) core.Config {
	mn, mx := g.Range()
	return core.DefaultConfig(1e-3 * float64(mx-mn))
}

// ----------------------------------------------------------------- fig 13

func expFig13() error {
	header("fig13", "Progressive decompression on Miranda (Fig. 13)")
	spec := datasets.All()[3]
	g := gen32(spec)
	enc, err := core.Compress(g, config4(g))
	if err != nil {
		return err
	}
	r, err := core.NewReader[float32](enc)
	if err != nil {
		return err
	}
	r.Workers = 1
	cr := float64(g.Len()*4) / float64(len(enc))
	fmt.Printf("stream CR = %.0f\n", cr)
	row("Level", "Resolution", "SSIM", "Dec.time")
	for lv := 3; lv >= 1; lv-- {
		t0 := time.Now()
		rec, err := r.Progressive(lv)
		if err != nil {
			return err
		}
		el := time.Since(t0)
		// As in the paper, the coarse reconstruction is rendered at full
		// resolution: upsample trilinearly and compare against the original.
		up := grid.Resize(rec, g.Nz, g.Ny, g.Nx)
		s, err := metrics.SSIM3D(g, up)
		if err != nil {
			return err
		}
		row(fmt.Sprintf("%d", lv),
			fmt.Sprintf("%dx%dx%d", rec.Nz, rec.Ny, rec.Nx), f3(s), dur(el))
	}
	fmt.Println("\nPaper: 1024³ SSIM .96/11.4s; 512³ .86/2.5s; 256³ .74/0.71s at CR 447.")
	return nil
}

// ------------------------------------------------------------- formatting

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

func dur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// ----------------------------------------------------- design ablations

// expEBRatio reproduces the paper's optimization-5 calibration: sweep the
// per-level error-bound ratio and report rate-distortion, which is how the
// paper arrived at eb_l2 = 2.5 × eb_l1.
func expEBRatio() error {
	header("ebratio", "Adaptive error-bound ratio calibration (§3.1, Opt. 5)")
	for _, s := range datasets.All()[:2] { // Nyx and WarpX suffice
		fmt.Printf("\n--- %s ---\n", s.Name)
		row("ratio", "CR", "PSNR")
		ratios := []float64{1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0}
		for _, ratio := range ratios {
			mkCfg := func(eb float64) core.Config {
				c := core.DefaultConfig(eb)
				c.EBRatio = ratio
				c.AdaptiveEB = ratio != 1.0
				return c
			}
			var cr, psnr float64
			if s.DType == "float32" {
				res, err := bench.Run(bench.STZVariant[float32]("r", mkCfg), gen32(s), 1e-3, *flagWorkers, false)
				if err != nil {
					return err
				}
				cr, psnr = res.CR, res.PSNR
			} else {
				res, err := bench.Run(bench.STZVariant[float64]("r", mkCfg), gen64(s), 1e-3, *flagWorkers, false)
				if err != nil {
					return err
				}
				cr, psnr = res.CR, res.PSNR
			}
			row(fmt.Sprintf("%.1f", ratio), f1(cr), f1(psnr))
		}
	}
	fmt.Println("\nPaper: ratio 2.5 gave the best overall compression performance.")
	return nil
}

// expChunked quantifies the random-access-Huffman extension (the paper's
// future work): compression-ratio cost vs slice-decode savings for several
// chunk sizes.
func expChunked() error {
	header("chunked", "Random-access Huffman chunking: CR cost vs decode savings")
	s := datasets.All()[3] // Miranda
	g := gen32(s)
	mn, mx := g.Range()
	eb := 1e-3 * float64(mx-mn)

	plain, err := core.Compress(g, core.DefaultConfig(eb))
	if err != nil {
		return err
	}
	row("chunk", "CR", "CR cost", "slice chunks", "slice time")
	rp, err := core.NewReader[float32](plain)
	if err != nil {
		return err
	}
	t0 := time.Now()
	_, st, err := rp.DecompressSliceZ(g.Nz / 2)
	if err != nil {
		return err
	}
	baseT := time.Since(t0)
	crPlain := float64(g.Len()*4) / float64(len(plain))
	// The default stream's class streams are brick lanes: its "chunks" are
	// its bricks.
	row("bricks", f1(crPlain), "-", fmt.Sprintf("%d/%d", st.DecodedChunks[1], st.DecodedChunks[1]+st.SkippedChunks[1]), dur(baseT))

	for _, chunk := range []int{1 << 18, 1 << 16, 1 << 14, 1 << 12} {
		cfg := core.DefaultConfig(eb)
		cfg.CodeChunk = chunk
		enc, err := core.Compress(g, cfg)
		if err != nil {
			return err
		}
		r, err := core.NewReader[float32](enc)
		if err != nil {
			return err
		}
		t1 := time.Now()
		_, st, err := r.DecompressSliceZ(g.Nz / 2)
		if err != nil {
			return err
		}
		el := time.Since(t1)
		cr := float64(g.Len()*4) / float64(len(enc))
		row(fmt.Sprintf("%d", chunk), f1(cr),
			fmt.Sprintf("%.1f%%", 100*(1-float64(len(plain))/float64(len(enc)))),
			fmt.Sprintf("%d/%d", st.DecodedChunks[1], st.DecodedChunks[1]+st.SkippedChunks[1]),
			dur(el))
	}
	return nil
}

// ------------------------------------------------------------- codecs

// expCodecs exercises the unified codec registry (internal/codec): it
// prints the capability matrix and runs every registered backend through
// the chunk-parallel Encode/Decode pipeline on one dataset, reporting
// compression ratio, max error and throughput per backend — the
// multi-backend sweep a single CLI invocation can now reproduce with
// "stz compress -codec <name>".
func expCodecs() error {
	header("codecs", "Unified codec registry: capability matrix + chunked pipeline sweep")
	row("Codec", "ID", "Progressive", "RandomAccess", "Par.Decomp")
	for _, c := range codec.All() {
		caps := c.Caps()
		row(c.Name(), fmt.Sprintf("%d", c.ID()),
			yn(caps.Progressive), yn(caps.RandomAccess), yn(caps.ParallelDecompress))
	}

	g := gen32(datasets.All()[0]) // Nyx
	mn, mx := g.Range()
	cfg := codec.Config{EB: 1e-3, Mode: codec.ModeRel, Workers: *flagWorkers}
	abs := cfg.Resolve(float64(mn), float64(mx)).EB
	fmt.Printf("\nNyx %dx%dx%d, rel eb 1e-3 (abs %.3g), %d workers, auto-chunked:\n\n",
		g.Nz, g.Ny, g.Nx, abs, *flagWorkers)
	row("Codec", "CR", "MaxErr/EB", "Comp MB/s", "Dec MB/s", "Chunks")
	rawMB := float64(4*g.Len()) / (1 << 20)
	for _, name := range codec.Names() {
		t0 := time.Now()
		enc, err := codec.Encode(name, g, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		tc := time.Since(t0)
		hdr, err := codec.ParseHeader(enc)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		t0 = time.Now()
		dec, err := codec.Decode[float32](enc, *flagWorkers)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		td := time.Since(t0)
		worst := 0.0
		for i := range g.Data {
			if e := float64(g.Data[i]) - float64(dec.Data[i]); e > worst {
				worst = e
			} else if -e > worst {
				worst = -e
			}
		}
		row(name,
			fmt.Sprintf("%.1f", float64(4*g.Len())/float64(len(enc))),
			fmt.Sprintf("%.3f", worst/abs),
			fmt.Sprintf("%.1f", rawMB/tc.Seconds()),
			fmt.Sprintf("%.1f", rawMB/td.Seconds()),
			fmt.Sprintf("%d", hdr.Chunks()))
	}
	return nil
}
