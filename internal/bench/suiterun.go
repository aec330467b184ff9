package bench

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"stz/internal/benchfmt"
	"stz/internal/codec"
	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/metrics"
	"stz/internal/rawio"
	"stz/internal/scratch"
	"stz/internal/stzd"
)

// MaxPSNR (dB) clamps lossless reconstructions: JSON cannot encode the
// +Inf PSNR of a zero-error decode, and the BENCH schema requires finite
// values.
const MaxPSNR = 999

// CellMetric is one secondary measurement of a cell, named by its unit
// exactly as it appears in the emitted series ("ratio", "psnr_db", ...).
type CellMetric struct {
	Unit  string
	Value float64
}

// CellResult is the aggregated measurement of one suite cell: the minimum
// ns/op across runs plus the minimum of each secondary metric.
type CellResult struct {
	Name    string
	NsPerOp float64
	Metrics []CellMetric
}

// cellAgg folds per-run observations into min-of-N aggregates. The
// minimum — not the mean — is the gating estimate: for timings it is the
// least-noise run, and the fidelity metrics are deterministic per cell so
// any fold returns the run value while staying conservative if a codec
// ever turns nondeterministic.
type cellAgg struct {
	name  string
	ns    float64
	units []string // insertion order, for stable emission
	vals  map[string]float64
}

func newCellAgg(name string) *cellAgg {
	return &cellAgg{name: name, ns: math.Inf(1), vals: map[string]float64{}}
}

func (a *cellAgg) observeNs(d time.Duration) {
	if ns := float64(d.Nanoseconds()); ns < a.ns {
		a.ns = ns
	}
}

func (a *cellAgg) observe(unit string, v float64) {
	if old, ok := a.vals[unit]; !ok {
		a.units = append(a.units, unit)
		a.vals[unit] = v
	} else if v < old {
		a.vals[unit] = v
	}
}

// set records a once-per-cell metric (not folded across runs).
func (a *cellAgg) set(unit string, v float64) {
	if _, ok := a.vals[unit]; !ok {
		a.units = append(a.units, unit)
	}
	a.vals[unit] = v
}

func (a *cellAgg) result() CellResult {
	res := CellResult{Name: a.name, NsPerOp: a.ns}
	for _, u := range a.units {
		res.Metrics = append(res.Metrics, CellMetric{Unit: u, Value: a.vals[u]})
	}
	return res
}

func clampPSNR(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case v > MaxPSNR:
		return MaxPSNR
	case v < -MaxPSNR:
		return -MaxPSNR
	}
	return v
}

// RunSuite executes every cell of the spec runs times (spec.Runs when runs
// < 1) and returns the aggregated results in cell order. logf, when
// non-nil, receives one progress line per completed cell.
func RunSuite(spec *SuiteSpec, runs int, logf func(format string, args ...any)) ([]CellResult, error) {
	if runs < 1 {
		runs = spec.Runs
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	cells, err := spec.Cells()
	if err != nil {
		return nil, err
	}
	results := make([]CellResult, 0, len(cells))
	for i, c := range cells {
		ress, err := runCell(c, runs)
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", c.Name, err)
		}
		logf("[%d/%d] %s: %.0f ns/op", i+1, len(cells), c.Name, ress[0].NsPerOp)
		results = append(results, ress...)
	}
	return results, nil
}

// MakeCell resolves a hand-built cell (as opposed to one expanded from a
// suite spec): it stamps the deterministic cell name, so the emitted
// entries line up with the same cell produced by a suites/*.toml run —
// the property that lets cmd/stzload gate against a suite baseline.
func MakeCell(c Cell) Cell {
	c.Name = c.cellName()
	return c
}

// RunCell executes one resolved cell runs times and returns its
// aggregated results (the cell itself first, then any per-endpoint
// sub-results). It is the single-cell surface cmd/stzload drives.
func RunCell(c Cell, runs int) ([]CellResult, error) {
	if runs < 1 {
		runs = 1
	}
	return runCell(c, runs)
}

// runCell regenerates the cell's corpus from its self-describing name and
// dispatches on the generator's element type. The first result is the
// cell's own aggregate; workloads with per-endpoint breakdowns (soak)
// append one sub-result per endpoint.
func runCell(c Cell, runs int) ([]CellResult, error) {
	gen, dims, seed, err := datasets.ParseName(c.Dataset)
	if err != nil {
		return nil, err
	}
	spec, err := datasets.Lookup(gen)
	if err != nil {
		return nil, err
	}
	if spec.DType == "float32" {
		return runCellT(c, spec.Generate32(dims[0], dims[1], dims[2], seed), runs)
	}
	return runCellT(c, spec.Generate64(dims[0], dims[1], dims[2], seed), runs)
}

func runCellT[T grid.Float](c Cell, g *grid.Grid[T], runs int) ([]CellResult, error) {
	agg := newCellAgg(c.Name)
	before := scratch.GlobalStats()
	var extra []CellResult
	var err error
	switch c.Workload {
	case WorkloadCompress, WorkloadDecompress:
		err = runCompressCell(c, g, runs, agg)
	case WorkloadBox:
		err = runBoxCell(c, g, runs, agg)
	case WorkloadHTTP:
		err = runHTTPCell(c, g, runs, agg)
	default: // the service-tier rows of loadCells
		extra, err = runLoadCell(c, g, runs, agg)
	}
	if err != nil {
		return nil, err
	}
	// Arena health across the whole cell, the same metric the steady-state
	// benchmarks report. Global counters, so concurrent suites would blur
	// each other — the driver runs cells sequentially.
	after := scratch.GlobalStats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits+misses > 0 {
		agg.set("pool-hit-%", 100*float64(hits)/float64(hits+misses))
	}
	return append([]CellResult{agg.result()}, extra...), nil
}

// runCompressCell measures in-process compression or decompression through
// the bench facade, which also validates the error bound.
func runCompressCell[T grid.Float](c Cell, g *grid.Grid[T], runs int, agg *cellAgg) error {
	facade, err := FromRegistry[T](c.Codec)
	if err != nil {
		return err
	}
	for run := 0; run < runs; run++ {
		r, err := Run(facade, g, c.EB, c.Workers, false)
		if err != nil {
			return err
		}
		if c.Workload == WorkloadCompress {
			agg.observeNs(r.CompressTime)
		} else {
			agg.observeNs(r.DecompressTime)
		}
		agg.observe("ratio", r.CR)
		agg.observe("psnr_db", clampPSNR(r.PSNR))
		agg.observe("max_abs_err", r.MaxErr)
	}
	return nil
}

// encodeCell resolves the cell's value-range-relative bound against g and
// encodes g into the cell's chunk count with the cell's codec.
func encodeCell[T grid.Float](c Cell, g *grid.Grid[T]) (ebAbs float64, enc []byte, err error) {
	mn, mx := g.Range()
	ebAbs = c.EB * (float64(mx) - float64(mn))
	if !(ebAbs > 0) {
		ebAbs = c.EB
	}
	enc, err = codec.Encode(c.Codec, g, codec.Config{EB: ebAbs, Workers: c.Workers, Chunks: c.Chunks})
	return ebAbs, enc, err
}

// runBoxCell measures random-access box queries: the archive is encoded
// once (untimed), then each run opens a fresh reader and decodes a
// centered window, so the fallback path's slab cache never hides the read
// cost of later runs. Bytes-read-per-voxel comes from the container's
// chunk-read accounting.
func runBoxCell[T grid.Float](c Cell, g *grid.Grid[T], runs int, agg *cellAgg) error {
	ebAbs, enc, err := encodeCell(c, g)
	if err != nil {
		return err
	}
	box := centeredBox(g, c.Box)
	orig := subGrid(g, box)
	voxels := float64(box.Volume())
	for run := 0; run < runs; run++ {
		r, err := codec.OpenReaderAt[T](enc)
		if err != nil {
			return err
		}
		r.Workers = c.Workers
		t0 := time.Now()
		sub, err := r.DecompressBox(box)
		if err != nil {
			return err
		}
		agg.observeNs(time.Since(t0))
		d, err := metrics.Compare(orig, sub)
		if err != nil {
			return err
		}
		if d.MaxErr > ebAbs*(1+1e-9) {
			return fmt.Errorf("box decode violated error bound: %g > %g", d.MaxErr, ebAbs)
		}
		agg.observe("readB/voxel", float64(r.BytesRead())/voxels)
		agg.observe("psnr_db", clampPSNR(d.PSNR))
	}
	return nil
}

// runHTTPCell measures the end-to-end service path: a compress POST
// followed by a decompress POST against an in-process stzd instance (the
// same handler cmd/stzd serves), timing the full round trip.
func runHTTPCell[T grid.Float](c Cell, g *grid.Grid[T], runs int, agg *cellAgg) error {
	ts := stzd.StartTest(stzd.Options{Workers: c.Workers})
	defer ts.Close()
	raw := make([]byte, g.Len()*rawio.ElemSize[T]())
	rawio.PutValues(raw, g.Data)
	compressURL := fmt.Sprintf("%s/v1/compress?codec=%s&dims=%dx%dx%d&dtype=%s&eb=%s&mode=rel&chunks=%d",
		ts.URL, c.Codec, g.Nz, g.Ny, g.Nx, dtypeName[T](),
		strconv.FormatFloat(c.EB, 'g', -1, 64), c.Chunks)
	for run := 0; run < runs; run++ {
		t0 := time.Now()
		archive, err := post(compressURL, raw)
		if err != nil {
			return fmt.Errorf("compress request: %w", err)
		}
		decRaw, err := post(ts.URL+"/v1/decompress", archive)
		if err != nil {
			return fmt.Errorf("decompress request: %w", err)
		}
		agg.observeNs(time.Since(t0))
		if len(decRaw) != len(raw) {
			return fmt.Errorf("decompressed %d bytes, want %d", len(decRaw), len(raw))
		}
		dec := grid.New[T](g.Nz, g.Ny, g.Nx)
		rawio.GetValues(dec.Data, decRaw)
		d, err := metrics.Compare(g, dec)
		if err != nil {
			return err
		}
		agg.observe("ratio", float64(len(raw))/float64(len(archive)))
		agg.observe("psnr_db", clampPSNR(d.PSNR))
	}
	return nil
}

// dtypeName is T as stzd's dtype= parameter spells it.
func dtypeName[T grid.Float]() string {
	if rawio.ElemSize[T]() == 8 {
		return "f64"
	}
	return "f32"
}

func post(url string, body []byte) ([]byte, error) {
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// centeredBox places the requested query window (clipped to the grid) at
// the grid's center, where every generator puts interesting structure.
func centeredBox[T grid.Float](g *grid.Grid[T], want [3]int) grid.Box {
	bz, by, bx := minInt(want[0], g.Nz), minInt(want[1], g.Ny), minInt(want[2], g.Nx)
	z0, y0, x0 := (g.Nz-bz)/2, (g.Ny-by)/2, (g.Nx-bx)/2
	return grid.Box{Z0: z0, Z1: z0 + bz, Y0: y0, Y1: y0 + by, X0: x0, X1: x0 + bx}
}

// subGrid copies the window b out of g.
func subGrid[T grid.Float](g *grid.Grid[T], b grid.Box) *grid.Grid[T] {
	out := grid.New[T](b.Z1-b.Z0, b.Y1-b.Y0, b.X1-b.X0)
	i := 0
	for z := b.Z0; z < b.Z1; z++ {
		for y := b.Y0; y < b.Y1; y++ {
			row := (z*g.Ny + y) * g.Nx
			copy(out.Data[i:i+out.Nx], g.Data[row+b.X0:row+b.X1])
			i += out.Nx
		}
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// SuiteEntries flattens cell results into the benchfmt series shape: the
// plain cell name carries ns/op and each secondary metric gets the
// " - <unit>" suffixed name github-action-benchmark uses.
func SuiteEntries(results []CellResult, runs int) []benchfmt.Entry {
	extra := fmt.Sprintf("min of %d runs", runs)
	var entries []benchfmt.Entry
	for _, r := range results {
		entries = append(entries, benchfmt.Entry{Name: r.Name, Value: r.NsPerOp, Unit: "ns/op", Extra: extra})
		for _, m := range r.Metrics {
			entries = append(entries, benchfmt.Entry{Name: r.Name + " - " + m.Unit, Value: m.Value, Unit: m.Unit})
		}
	}
	return entries
}
