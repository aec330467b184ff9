// Command stz is the command-line front end of the unified codec registry,
// whose default codec is the paper's STZ streaming compressor.
//
//	stz gen        -dataset Nyx -dims 64x64x64 -out nyx.f32
//	stz compress   -in nyx.f32 -dims 64x64x64 -dtype f32 -eb 1e-3 -rel -out nyx.stz
//	stz compress   -in nyx.f32 -dims 64x64x64 -codec zfp -eb 1e-3 -out nyx.zfp
//	stz info       -in nyx.stz
//	stz decompress -in nyx.stz -out full.f32
//	stz decompress -in nyx.stz -level 1 -out coarse.f32        (progressive)
//	stz decompress -in nyx.stz -box 0:32,0:32,0:32 -out roi.f32 (random access)
//	stz decompress -in nyx.stz -slice 17 -out slice.f32
//	stz extract    -in nyx.zfp -box 0:16,0:16,0:16 -out roi.f32 (decompress -box
//	               under its own name; reads only the chunks it needs)
//	stz roi        -in nyx.f32 -dims 64x64x64 -dtype f32 -mode max -threshold 81.66
//	stz codecs
//
// The -codec flag names a registry codec: "stz" (default, the paper's
// hierarchical pipeline), sz3, zfp, sperr or mgard. Every command goes
// through internal/codec — the streaming Writer/Reader, ReaderAt for boxes
// and slices, DecodeLevel for previews — so one code path serves all five.
// A bare core archive written before stz was a registry codec is framed as
// one on load (loadArchive), the only place the CLI looks at the format.
package main

import (
	"bytes"
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

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	in := fs.String("in", "", "input raw file")
	out := fs.String("out", "", "output archive")
	dims := fs.String("dims", "", "dimensions ZxYxX")
	dtype := fs.String("dtype", "f32", "element type: f32 or f64")
	eb := fs.Float64("eb", 1e-3, "error bound")
	rel := fs.Bool("rel", false, "eb is relative to the value range")
	workers := fs.Int("workers", 0, "parallel workers (0 = auto: STZ_WORKERS if set, else 1 — archives stay byte-reproducible across machines)")
	codecName := fs.String("codec", "stz", "registry codec: stz, sz3, zfp, sperr or mgard")
	chunks := fs.Int("chunks", 0, "z-slab chunks (0 = auto: one for stz, from -workers otherwise)")
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
	// The file streams through the bounded-memory writer (at most a window
	// of slabs resident); the archive is byte-identical to codec.Encode.
	var encBytes int64
	origBytes := int64(nz) * int64(ny) * int64(nx) * 4
	switch *dtype {
	case "f32":
		encBytes, err = streamCompressFile[float32](*in, *out, *codecName,
			nz, ny, nx, *eb, *rel, *workers, *chunks)
	case "f64":
		origBytes *= 2
		encBytes, err = streamCompressFile[float64](*in, *out, *codecName,
			nz, ny, nx, *eb, *rel, *workers, *chunks)
	default:
		return fmt.Errorf("compress: dtype must be f32 or f64")
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d -> %d bytes (CR %.1f)\n", *out, origBytes, encBytes,
		float64(origBytes)/float64(encBytes))
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
	return nil
}

// loadArchive reads an archive file. A bare core archive — what `stz
// compress` wrote before stz was a registry codec — is adopted here, framed
// as the single-chunk unified archive of the same payload, so nothing
// downstream knows two formats.
func loadArchive(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil || codec.IsEncoded(data) {
		return data, err
	}
	h, err := coreHeader[float32](data)
	if err != nil {
		if h, err = coreHeader[float64](data); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return codec.Frame(codec.Header{
		CodecID: codec.IDSTZ, DType: h.DType, Nz: h.Fz, Ny: h.Fy, Nx: h.Fx,
		EBRequested: h.EB, EBAbs: h.EB,
	}, data), nil
}

// coreHeader reads the hierarchy header of a core payload of element type T.
func coreHeader[T grid.Float](payload []byte) (core.Header, error) {
	r, err := core.NewReader[T](payload)
	if err != nil {
		return core.Header{}, err
	}
	return r.Header(), nil
}

// stzDetail is coreHeader of the first slab of a unified stz archive.
func stzDetail[T grid.Float](data []byte) (core.Header, error) {
	r, err := codec.OpenReaderAt[T](data)
	if err != nil {
		return core.Header{}, err
	}
	sec, err := r.RawSection(0)
	if err != nil {
		return core.Header{}, err
	}
	return coreHeader[T](sec)
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "", "input archive")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("info: -in required")
	}
	data, err := loadArchive(*in)
	if err != nil {
		return err
	}
	hdr, err := codec.ParseHeader(data)
	if err != nil {
		return err
	}
	fi, err := os.Stat(*in)
	if err != nil {
		return err
	}
	dt := "f64"
	if hdr.DType == 4 {
		dt = "f32"
	}
	fmt.Printf("codec: %s  dims: %dx%dx%d  dtype: %s\n", hdr.Codec, hdr.Nz, hdr.Ny, hdr.Nx, dt)
	fmt.Printf("eb: %g (%s)  resolved abs eb: %g\n", hdr.EBRequested, hdr.Mode, hdr.EBAbs)
	fmt.Printf("chunks: %d  compressed size: %d bytes\n", hdr.Chunks(), fi.Size())
	if hdr.CodecID != codec.IDSTZ {
		return nil
	}
	// The hierarchy's own parameters live in the payload's header.
	detail := stzDetail[float64]
	if hdr.DType == 4 {
		detail = stzDetail[float32]
	}
	h, err := detail(data)
	if err != nil {
		return err
	}
	fmt.Printf("levels: %d  base: sz3  predictor: %s  adaptive: %v (ratio %.2f)\n",
		h.Levels, h.Predictor, h.AdaptiveEB, h.EBRatio)
	return nil
}

func cmdDecompress(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	in := fs.String("in", "", "input archive")
	out := fs.String("out", "", "output raw file")
	level := fs.Int("level", 0, "progressive level (1 = coarsest; 0 = full)")
	boxSpec := fs.String("box", "", "random-access box z0:z1,y0:y1,x0:x1")
	slice := fs.Int("slice", -1, "random-access z slice")
	workers := fs.Int("workers", 0, "parallel workers (0 = auto: STZ_WORKERS or min(cores, 8))")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("decompress: -in and -out required")
	}
	return decodeFile(*in, *out, *level, *boxSpec, *slice, *workers)
}

// cmdExtract is decompress -box under its own name: offline sub-box
// extraction through the codec ReaderAt, which touches only the z-slab
// chunks the box intersects and, within them, only what the codec's native
// box decode needs (the printed read accounting shows how little of the
// payload was fetched). The box must lie entirely inside the grid.
func cmdExtract(args []string) error {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	in := fs.String("in", "", "input archive")
	out := fs.String("out", "", "output raw file")
	boxSpec := fs.String("box", "", "sub-box z0:z1,y0:y1,x0:x1")
	workers := fs.Int("workers", 0, "parallel workers (0 = auto: STZ_WORKERS or min(cores, 8))")
	fs.Parse(args)
	if *in == "" || *out == "" || *boxSpec == "" {
		return fmt.Errorf("extract: -in, -out and -box required")
	}
	return decodeFile(*in, *out, 0, *boxSpec, -1, *workers)
}

// decodeFile is every read of an archive: the whole grid by default, one
// hierarchy level with level > 0, a window with a box spec or a z slice.
func decodeFile(in, out string, level int, boxSpec string, slice, workers int) error {
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	data, err := loadArchive(in)
	if err != nil {
		return err
	}
	hdr, err := codec.ParseHeader(data)
	if err != nil {
		return err
	}
	var box *grid.Box
	switch {
	case boxSpec != "":
		b, err := parseBox(boxSpec)
		if err != nil {
			return err
		}
		box = &b
	case slice >= 0:
		box = &grid.Box{Z0: slice, Z1: slice + 1, Y1: hdr.Ny, X1: hdr.Nx}
	}
	if hdr.DType == 4 {
		return decodeTo[float32](data, out, level, box, workers)
	}
	return decodeTo[float64](data, out, level, box, workers)
}

func decodeTo[T grid.Float](data []byte, out string, level int, box *grid.Box, workers int) error {
	var g *grid.Grid[T]
	note := ""
	switch {
	case box != nil:
		r, err := codec.OpenReaderAt[T](data)
		if err != nil {
			return err
		}
		r.Workers = workers
		if g, err = r.DecompressBox(*box); err != nil {
			return err
		}
		read, payload := r.BytesRead(), r.PayloadBytes()
		note = fmt.Sprintf(" (read %d of %d payload bytes, %.1f%%)",
			read, payload, 100*float64(read)/float64(payload))
	case level > 0:
		var err error
		if g, err = codec.DecodeLevel[T](data, level, workers); err != nil {
			return err
		}
	default:
		s, err := codec.OpenStream(bytes.NewReader(data))
		if err != nil {
			return err
		}
		if err := streamDecodeToFile[T](s, out, workers); err != nil {
			return err
		}
		hdr := s.Header()
		fmt.Printf("%s: %dx%dx%d\n", out, hdr.Nz, hdr.Ny, hdr.Nx)
		return nil
	}
	if err := writeRaw(out, g); err != nil {
		return err
	}
	fmt.Printf("%s: %dx%dx%d%s\n", out, g.Nz, g.Ny, g.Nx, note)
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
