// Command stz is the command-line front end of the STZ streaming
// compressor and the unified codec registry.
//
//	stz gen        -dataset Nyx -dims 64x64x64 -out nyx.f32
//	stz compress   -in nyx.f32 -dims 64x64x64 -dtype f32 -eb 1e-3 -rel -out nyx.stz
//	stz compress   -in nyx.f32 -dims 64x64x64 -codec zfp -eb 1e-3 -out nyx.zfp
//	stz info       -in nyx.stz
//	stz decompress -in nyx.stz -out full.f32
//	stz decompress -in nyx.stz -level 1 -out coarse.f32        (progressive)
//	stz decompress -in nyx.stz -box 0:32,0:32,0:32 -out roi.f32 (random access)
//	stz decompress -in nyx.stz -slice 17 -out slice.f32
//	stz extract    -in nyx.zfp -box 0:16,0:16,0:16 -out roi.f32 (works on
//	               registry archives too; reads only the chunks it needs)
//	stz roi        -in nyx.f32 -dims 64x64x64 -dtype f32 -mode max -threshold 81.66
//	stz codecs
//
// The -codec flag selects the compressor: "stz" (default) is the paper's
// hierarchical pipeline; any registry name (sz3, zfp, sperr, mgard) routes
// through the unified chunk-parallel pipeline of internal/codec. Decompress
// and info sniff the stream format, so one invocation handles both.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"image"
	"os"
	"strconv"
	"strings"

	"stz/internal/codec"
	"stz/internal/core"
	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/parallel"
	"stz/internal/quant"
	"stz/internal/rawio"
	"stz/internal/roi"
	"stz/internal/viz"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "compress":
		err = cmdCompress(os.Args[2:])
	case "decompress":
		err = cmdDecompress(os.Args[2:])
	case "extract":
		err = cmdExtract(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "roi":
		err = cmdROI(os.Args[2:])
	case "render":
		err = cmdRender(os.Args[2:])
	case "codecs":
		err = cmdCodecs()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stz:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: stz <gen|compress|decompress|extract|info|roi|render|codecs> [flags]
run "stz <command> -h" for command flags`)
}

// cmdRender rasterizes one z-slice of a raw field to PNG (the artifact the
// paper's visual figures are built from).
func cmdRender(args []string) error {
	fs := flag.NewFlagSet("render", flag.ExitOnError)
	in := fs.String("in", "", "input raw file")
	out := fs.String("out", "", "output PNG file")
	dims := fs.String("dims", "", "dimensions ZxYxX")
	dtype := fs.String("dtype", "f32", "element type: f32 or f64")
	z := fs.Int("z", 0, "z slice index")
	cmapName := fs.String("cmap", "gray", "colormap: gray, rainbow, coolwarm")
	logScale := fs.Bool("log", false, "log-scale normalization")
	fs.Parse(args)
	if *in == "" || *out == "" || *dims == "" {
		return fmt.Errorf("render: -in, -out and -dims required")
	}
	nz, ny, nx, err := parseDims(*dims)
	if err != nil {
		return err
	}
	var cmap viz.Colormap
	switch *cmapName {
	case "gray":
		cmap = viz.Gray
	case "rainbow":
		cmap = viz.Rainbow
	case "coolwarm":
		cmap = viz.CoolWarm
	default:
		return fmt.Errorf("render: unknown colormap %q", *cmapName)
	}
	opts := viz.Options{Map: cmap, Log: *logScale}
	var img *image.RGBA
	if *dtype == "f32" {
		g, err := readRaw[float32](*in, nz, ny, nx)
		if err != nil {
			return err
		}
		img, err = viz.SliceZ(g, *z, opts)
		if err != nil {
			return err
		}
	} else {
		g, err := readRaw[float64](*in, nz, ny, nx)
		if err != nil {
			return err
		}
		img, err = viz.SliceZ(g, *z, opts)
		if err != nil {
			return err
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := viz.WritePNG(f, img); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%dx%d)\n", *out, img.Bounds().Dx(), img.Bounds().Dy())
	return nil
}

// parseDims parses "ZxYxX".
func parseDims(s string) (int, int, int, error) {
	parts := strings.Split(s, "x")
	if len(parts) != 3 {
		return 0, 0, 0, fmt.Errorf("dims must be ZxYxX, got %q", s)
	}
	var d [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v <= 0 {
			return 0, 0, 0, fmt.Errorf("bad dimension %q", p)
		}
		d[i] = v
	}
	return d[0], d[1], d[2], nil
}

// parseBox parses "z0:z1,y0:y1,x0:x1" — the shared grammar lives at the
// codec layer next to CheckBox, so the CLI and the stzd query API cannot
// drift apart.
func parseBox(s string) (grid.Box, error) {
	return codec.ParseBox(s)
}

// readRaw loads a little-endian raw float file of exactly nz*ny*nx values.
func readRaw[T grid.Float](path string, nz, ny, nx int) (*grid.Grid[T], error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	n, elem := nz*ny*nx, rawio.ElemSize[T]()
	if len(b) != elem*n {
		return nil, fmt.Errorf("%s: %d bytes, want %d for %dx%dx%d f%d", path, len(b), elem*n, nz, ny, nx, 8*elem)
	}
	data := make([]T, n)
	rawio.GetValues(data, b)
	return grid.FromData(data, nz, ny, nx)
}

// writeRaw stores a grid as a little-endian raw float file.
func writeRaw[T grid.Float](path string, g *grid.Grid[T]) error {
	out := make([]byte, rawio.ElemSize[T]()*g.Len())
	rawio.PutValues(out, g.Data)
	return os.WriteFile(path, out, 0o644)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	name := fs.String("dataset", "Nyx", "dataset stand-in: Nyx, WarpX, Mag_Rec, Miranda")
	dims := fs.String("dims", "64x64x64", "dimensions ZxYxX")
	out := fs.String("out", "", "output raw file")
	seed := fs.Int64("seed", 0, "override the dataset seed (0 = default)")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("gen: -out required")
	}
	nz, ny, nx, err := parseDims(*dims)
	if err != nil {
		return err
	}
	for _, s := range datasets.All() {
		if !strings.EqualFold(s.Name, *name) {
			continue
		}
		sd := s.Seed
		if *seed != 0 {
			sd = *seed
		}
		if s.DType == "float32" {
			g := s.Generate32(nz, ny, nx, sd)
			if err := writeRaw(*out, g); err != nil {
				return err
			}
		} else {
			g := s.Generate64(nz, ny, nx, sd)
			if err := writeRaw(*out, g); err != nil {
				return err
			}
		}
		fmt.Printf("wrote %s (%s, %dx%dx%d, %s)\n", *out, s.Name, nz, ny, nx, s.DType)
		return nil
	}
	return fmt.Errorf("gen: unknown dataset %q", *name)
}

// compressGrid routes one grid through the core hierarchical pipeline
// (registry codecs take the streaming path in streamCompressFile instead).
func compressGrid[T grid.Float](g *grid.Grid[T], eb float64, rel bool,
	levels, workers int, base string) ([]byte, error) {

	bound := eb
	if rel {
		mn, mx := g.Range()
		bound = quant.AbsoluteBound(eb, float64(mn), float64(mx))
	}
	cfg := core.DefaultConfig(bound)
	cfg.Levels = levels
	cfg.Workers = workers
	cfg.BaseCodec = base
	return core.Compress(g, cfg)
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	in := fs.String("in", "", "input raw file")
	out := fs.String("out", "", "output .stz file")
	dims := fs.String("dims", "", "dimensions ZxYxX")
	dtype := fs.String("dtype", "f32", "element type: f32 or f64")
	eb := fs.Float64("eb", 1e-3, "error bound")
	rel := fs.Bool("rel", false, "eb is relative to the value range")
	levels := fs.Int("levels", 3, "hierarchy levels (2, 3 or 4; stz codec only)")
	workers := fs.Int("workers", 0, "parallel workers (0 = auto: STZ_WORKERS if set, else 1 — archives stay byte-reproducible across machines)")
	codecName := fs.String("codec", "stz", "compressor: stz, or a registry codec (sz3, zfp, sperr, mgard)")
	chunks := fs.Int("chunks", 0, "z-slab chunks for registry codecs (0 = auto from -workers)")
	base := fs.String("base", "", "base codec for the stz coarsest level (default sz3)")
	fs.Parse(args)
	if *workers <= 0 {
		// The chunk plan (and the backends' internal OMP modes) derive from
		// the worker count, so auto-detecting cores here would make the
		// default archive bytes depend on the host. Only an explicit opt-in
		// (-workers, or STZ_WORKERS that actually parses) trades
		// reproducibility for speed — a malformed variable must not fall
		// back to a host-dependent count.
		*workers = 1
		if v, ok := parallel.EnvWorkers(); ok {
			*workers = v
		}
	}
	if *in == "" || *out == "" || *dims == "" {
		return fmt.Errorf("compress: -in, -out and -dims required")
	}
	nz, ny, nx, err := parseDims(*dims)
	if err != nil {
		return err
	}
	if *dtype != "f32" && *dtype != "f64" {
		return fmt.Errorf("compress: dtype must be f32 or f64")
	}

	// Registry codecs stream the file through the bounded-memory pipeline:
	// the grid is never fully resident, and the archive is byte-identical
	// to the buffered codec.Encode path.
	if *codecName != "stz" {
		var encBytes int64
		if *dtype == "f32" {
			encBytes, err = streamCompressFile[float32](*in, *out, *codecName,
				nz, ny, nx, *eb, *rel, *workers, *chunks)
		} else {
			encBytes, err = streamCompressFile[float64](*in, *out, *codecName,
				nz, ny, nx, *eb, *rel, *workers, *chunks)
		}
		if err != nil {
			return err
		}
		origBytes := int64(nz) * int64(ny) * int64(nx) * 4
		if *dtype == "f64" {
			origBytes *= 2
		}
		fmt.Printf("%s: %d -> %d bytes (CR %.1f)\n", *out, origBytes, encBytes,
			float64(origBytes)/float64(encBytes))
		return nil
	}

	var enc []byte
	var origBytes int
	if *dtype == "f32" {
		g, err := readRaw[float32](*in, nz, ny, nx)
		if err != nil {
			return err
		}
		enc, err = compressGrid(g, *eb, *rel, *levels, *workers, *base)
		if err != nil {
			return err
		}
		origBytes = 4 * g.Len()
	} else {
		g, err := readRaw[float64](*in, nz, ny, nx)
		if err != nil {
			return err
		}
		enc, err = compressGrid(g, *eb, *rel, *levels, *workers, *base)
		if err != nil {
			return err
		}
		origBytes = 8 * g.Len()
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		return err
	}
	fmt.Printf("%s: %d -> %d bytes (CR %.1f)\n", *out, origBytes, len(enc),
		float64(origBytes)/float64(len(enc)))
	return nil
}

// cmdCodecs prints the registry capability matrix.
func cmdCodecs() error {
	fmt.Printf("%-8s %-4s %-12s %-13s %-10s %-10s %s\n",
		"name", "id", "progressive", "random-access", "par-comp", "par-dec", "dtypes")
	for _, c := range codec.All() {
		caps := c.Caps()
		dt := ""
		if caps.Float32 {
			dt += "f32 "
		}
		if caps.Float64 {
			dt += "f64"
		}
		fmt.Printf("%-8s %-4d %-12v %-13v %-10v %-10v %s\n",
			c.Name(), c.ID(), caps.Progressive, caps.RandomAccess,
			caps.ParallelCompress, caps.ParallelDecompress, dt)
	}
	fmt.Println("\n\"stz\" (the default -codec) is the paper's hierarchical compressor: progressive,")
	fmt.Println("random-access, parallel, with -base selecting its coarsest-level codec.")
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "input .stz file")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("info: -in required")
	}
	// Registry archives need only the directory and header section, so
	// sniff and print without loading the payload (which may be huge).
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	s, serr := codec.OpenStream(bufio.NewReader(f))
	if serr == nil {
		defer f.Close()
		fi, err := f.Stat()
		if err != nil {
			return err
		}
		hdr := s.Header()
		dt := "f64"
		if hdr.DType == 4 {
			dt = "f32"
		}
		fmt.Printf("codec: %s  dims: %dx%dx%d  dtype: %s\n", hdr.Codec, hdr.Nz, hdr.Ny, hdr.Nx, dt)
		fmt.Printf("eb: %g (%s)  resolved abs eb: %g\n", hdr.EBRequested, hdr.Mode, hdr.EBAbs)
		fmt.Printf("chunks: %d  compressed size: %d bytes\n", hdr.Chunks(), fi.Size())
		return nil
	}
	f.Close()
	if sniffEncoded(*in) {
		return serr
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	hdr, err := peekHeader(data)
	if err != nil {
		return err
	}
	dt := "f64"
	if hdr.DType == 4 {
		dt = "f32"
	}
	fmt.Printf("codec: stz (base %s)  dims: %dx%dx%d  dtype: %s  levels: %d\n",
		hdr.BaseCodec, hdr.Fz, hdr.Fy, hdr.Fx, dt, hdr.Levels)
	fmt.Printf("eb: %g  adaptive: %v (ratio %.2f)  predictor: %s  residual: %s\n",
		hdr.EB, hdr.AdaptiveEB, hdr.EBRatio, hdr.Predictor, hdr.Residual)
	fmt.Printf("partition-only: %v  compressed size: %d bytes\n", hdr.PartitionOnly, len(data))
	return nil
}

// peekHeader reads the header regardless of the stream's element type.
func peekHeader(data []byte) (core.Header, error) {
	if r, err := core.NewReader[float32](data); err == nil {
		return r.Header(), nil
	}
	r, err := core.NewReader[float64](data)
	if err != nil {
		return core.Header{}, err
	}
	return r.Header(), nil
}

func cmdDecompress(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	in := fs.String("in", "", "input .stz file")
	out := fs.String("out", "", "output raw file")
	level := fs.Int("level", 0, "progressive level (1 = coarsest; 0 = full)")
	boxSpec := fs.String("box", "", "random-access box z0:z1,y0:y1,x0:x1")
	slice := fs.Int("slice", -1, "random-access z slice")
	workers := fs.Int("workers", 0, "parallel workers (0 = auto: STZ_WORKERS or min(cores, 8))")
	stats := fs.Bool("stats", false, "print the stage time breakdown")
	fs.Parse(args)
	if *workers <= 0 {
		*workers = parallel.DefaultWorkers()
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("decompress: -in and -out required")
	}
	// Sniff the format by attempting to open the unified streaming framing;
	// registry-codec archives decode incrementally with bounded memory.
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	s, serr := codec.OpenStream(bufio.NewReaderSize(f, 1<<20))
	if serr == nil {
		defer f.Close()
		if *level > 0 || *boxSpec != "" || *slice >= 0 || *stats {
			return fmt.Errorf("decompress: -level/-box/-slice/-stats require an stz stream; this is a registry-codec stream")
		}
		hdr := s.Header()
		if hdr.DType == 4 {
			err = streamDecodeToFile[float32](s, *out, *workers)
		} else {
			err = streamDecodeToFile[float64](s, *out, *workers)
		}
		if err != nil {
			return err
		}
		fmt.Printf("%s: %dx%dx%d\n", *out, hdr.Nz, hdr.Ny, hdr.Nx)
		return nil
	}
	f.Close()
	if sniffEncoded(*in) {
		// The file is a unified registry archive that failed to open:
		// report that error rather than confusing the core path with it.
		return serr
	}
	// Not a unified archive: fall back to the buffered STZ core path,
	// which owns progressive/random-access decoding.
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	hdr, err := peekHeader(data)
	if err != nil {
		return err
	}
	if hdr.DType == 4 {
		return decompressAs[float32](data, *out, *level, *boxSpec, *slice, *workers, *stats)
	}
	return decompressAs[float64](data, *out, *level, *boxSpec, *slice, *workers, *stats)
}

func decompressAs[T grid.Float](data []byte, out string, level int, boxSpec string,
	slice, workers int, stats bool) error {

	r, err := core.NewReader[T](data)
	if err != nil {
		return err
	}
	r.Workers = workers
	var g *grid.Grid[T]
	var st *core.Stats
	switch {
	case boxSpec != "":
		b, err := parseBox(boxSpec)
		if err != nil {
			return err
		}
		g, st, err = r.DecompressBox(b)
		if err != nil {
			return err
		}
	case slice >= 0:
		g, st, err = r.DecompressSliceZ(slice)
		if err != nil {
			return err
		}
	case level > 0:
		g, err = r.Progressive(level)
		if err != nil {
			return err
		}
	default:
		g, st, err = r.DecompressStats()
		if err != nil {
			return err
		}
	}
	if err := writeRaw(out, g); err != nil {
		return err
	}
	fmt.Printf("%s: %dx%dx%d\n", out, g.Nz, g.Ny, g.Nx)
	if stats && st != nil {
		fmt.Printf("L1 SZ3 %v | L2 dec %v pre %v rec %v | L3 dec %v pre %v rec %v | total %v\n",
			st.L1SZ3, st.LevelDecode[0], st.LevelPredict[0], st.LevelRecon[0],
			st.LevelDecode[1], st.LevelPredict[1], st.LevelRecon[1], st.Total)
	}
	return nil
}

// cmdExtract is offline sub-box extraction — random access against both
// stream families. Registry (SZXC) archives decode through the codec
// ReaderAt, touching only the z-slab chunks the box intersects (the
// printed read accounting shows how little of the payload was fetched);
// STZ core streams use the hierarchical reader's DecompressBox. The box
// must lie entirely inside the grid (no silent clipping).
func cmdExtract(args []string) error {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	in := fs.String("in", "", "input archive (.stz or registry SZXC)")
	out := fs.String("out", "", "output raw file")
	boxSpec := fs.String("box", "", "sub-box z0:z1,y0:y1,x0:x1")
	workers := fs.Int("workers", 0, "parallel workers (0 = auto: STZ_WORKERS or min(cores, 8))")
	fs.Parse(args)
	if *in == "" || *out == "" || *boxSpec == "" {
		return fmt.Errorf("extract: -in, -out and -box required")
	}
	if *workers <= 0 {
		*workers = parallel.DefaultWorkers()
	}
	b, err := parseBox(*boxSpec)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	if codec.IsEncoded(data) {
		hdr, err := codec.ParseHeader(data)
		if err != nil {
			return err
		}
		if hdr.DType == 4 {
			return extractEncoded[float32](data, b, *out, *workers)
		}
		return extractEncoded[float64](data, b, *out, *workers)
	}
	hdr, err := peekHeader(data)
	if err != nil {
		return err
	}
	if hdr.DType == 4 {
		return extractCore[float32](data, b, *out, *workers)
	}
	return extractCore[float64](data, b, *out, *workers)
}

func extractEncoded[T grid.Float](data []byte, b grid.Box, out string,
	workers int) error {

	r, err := codec.OpenReaderAt[T](data)
	if err != nil {
		return err
	}
	r.Workers = workers
	g, err := r.DecompressBox(b)
	if err != nil {
		return err
	}
	if err := writeRaw(out, g); err != nil {
		return err
	}
	read, payload := r.BytesRead(), r.PayloadBytes()
	fmt.Printf("%s: %dx%dx%d (read %d of %d payload bytes, %.1f%%)\n",
		out, g.Nz, g.Ny, g.Nx, read, payload, 100*float64(read)/float64(payload))
	return nil
}

func extractCore[T grid.Float](data []byte, b grid.Box, out string,
	workers int) error {

	r, err := core.NewReader[T](data)
	if err != nil {
		return err
	}
	r.Workers = workers
	g, _, err := r.DecompressBox(b)
	if err != nil {
		return err
	}
	if err := writeRaw(out, g); err != nil {
		return err
	}
	fmt.Printf("%s: %dx%dx%d\n", out, g.Nz, g.Ny, g.Nx)
	return nil
}

func cmdROI(args []string) error {
	fs := flag.NewFlagSet("roi", flag.ExitOnError)
	in := fs.String("in", "", "input raw file")
	dims := fs.String("dims", "", "dimensions ZxYxX")
	dtype := fs.String("dtype", "f32", "element type: f32 or f64")
	mode := fs.String("mode", "max", "statistic: max or range")
	thresh := fs.Float64("threshold", 0, "selection threshold")
	top := fs.Float64("top", 0, "select top X percent instead of threshold")
	block := fs.Int("block", 16, "ROI block size")
	fs.Parse(args)
	if *in == "" || *dims == "" {
		return fmt.Errorf("roi: -in and -dims required")
	}
	nz, ny, nx, err := parseDims(*dims)
	if err != nil {
		return err
	}
	m := roi.MaxValue
	if *mode == "range" {
		m = roi.ValueRange
	}
	var regions []roi.Region
	var total int
	if *dtype == "f32" {
		g, err := readRaw[float32](*in, nz, ny, nx)
		if err != nil {
			return err
		}
		regions, err = roi.ScanBlocks(g, *block, m)
		if err != nil {
			return err
		}
		total = g.Len()
	} else {
		g, err := readRaw[float64](*in, nz, ny, nx)
		if err != nil {
			return err
		}
		regions, err = roi.ScanBlocks(g, *block, m)
		if err != nil {
			return err
		}
		total = g.Len()
	}
	var sel []roi.Region
	if *top > 0 {
		sel = roi.TopPercent(regions, *top)
	} else {
		sel = roi.Threshold(regions, *thresh)
	}
	var pts int
	for _, r := range sel {
		pts += r.Box.Volume()
	}
	fmt.Printf("%d/%d blocks selected (%.2f%% of volume), %s mode\n",
		len(sel), len(regions), 100*float64(pts)/float64(total), m)
	for _, r := range sel {
		fmt.Printf("  box %d:%d,%d:%d,%d:%d  stat=%g\n",
			r.Box.Z0, r.Box.Z1, r.Box.Y0, r.Box.Y1, r.Box.X0, r.Box.X1, r.Stat)
	}
	return nil
}
