package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"stz/internal/codec"
	"stz/internal/datasets"
)

// Suite workload names. Every benchmark cell runs exactly one of these:
// in-process compression, in-process decompression, random-access box
// queries against an encoded archive, an HTTP round trip through an
// in-process stzd instance, or a zipfian box-query mix against a 3-node
// stzd cluster (consistent-hash routing, forwarding, hot-box caching).
const (
	WorkloadCompress   = "compress"
	WorkloadDecompress = "decompress"
	WorkloadBox        = "box"
	WorkloadHTTP       = "http"
	WorkloadCluster    = "cluster"
	WorkloadChaos      = "chaos"
	WorkloadRecovery   = "recovery"
	// WorkloadSoak drives an in-process stzd with the fixed-rate open-loop
	// generator (mixed box/section/compress/decompress/PUT traffic) and
	// reports latency quantiles instead of throughput: p50 as ns/op plus
	// p99/p999/max and the p999/p50 inflation ratio per endpoint.
	WorkloadSoak = "soak"
)

var knownWorkloads = []string{WorkloadCompress, WorkloadDecompress, WorkloadBox, WorkloadHTTP, WorkloadCluster, WorkloadChaos, WorkloadRecovery, WorkloadSoak}

// SuiteSpec is a declarative benchmark suite: a name, a run count, and one
// or more cell matrices whose cross products define the cells.
type SuiteSpec struct {
	Name     string
	Runs     int // iterations per cell; the minimum is reported
	Matrices []Matrix
}

// Matrix is one dataset × codec × bound × workers × workload cross
// product. Datasets are self-describing corpus names
// ("Nyx-48x40x44-s1001"): generator, dims and seed all live in the name,
// so committed results document their exact inputs.
type Matrix struct {
	Datasets  []string
	Codecs    []string // registry names
	Bounds    []float64
	Workers   []int
	Workloads []string
	Chunks    int    // encode-time z-slab count for box cells
	Box       [3]int // query window dims (z, y, x) for box cells

	// Open-loop soak parameters (soak workload only).
	Rate    float64 // offered load in requests/s
	Seconds int     // schedule length per run
	Clients int     // worker-pool size (max in-flight requests)
}

// Cell is one fully resolved benchmark cell.
type Cell struct {
	Name     string
	Dataset  string
	Codec    string
	EB       float64 // value-range-relative error bound
	Workers  int
	Workload string
	Chunks   int
	Box      [3]int

	// Soak-only knobs (see Matrix).
	Rate    float64
	Seconds int
	Clients int
	// Target, when non-empty, points the soak cell at an external stzd
	// base URL instead of an in-process instance. Not a spec key — only
	// cmd/stzload sets it.
	Target string
}

// ParseSuite reads a suite spec in the TOML subset, applies defaults
// (runs=3, workers=[1], chunks=4, box=[16,16,16]) and validates it.
func ParseSuite(r io.Reader) (*SuiteSpec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	tables, err := parseTOML(string(data))
	if err != nil {
		return nil, fmt.Errorf("suite spec: %w", err)
	}
	spec := &SuiteSpec{Runs: 3}
	seenSuite := false
	for i := range tables {
		t := &tables[i]
		switch t.name {
		case "suite":
			if t.array {
				return nil, fmt.Errorf("suite spec: line %d: [suite] must be a plain table, not [[suite]]", t.line)
			}
			if seenSuite {
				return nil, fmt.Errorf("suite spec: line %d: duplicate [suite] section", t.line)
			}
			seenSuite = true
			if err := mapSuiteTable(t, spec); err != nil {
				return nil, err
			}
		case "matrix":
			if !t.array {
				return nil, fmt.Errorf("suite spec: line %d: matrices must be declared as [[matrix]]", t.line)
			}
			m, err := mapMatrixTable(t)
			if err != nil {
				return nil, err
			}
			spec.Matrices = append(spec.Matrices, m)
		default:
			return nil, fmt.Errorf("suite spec: line %d: unknown section [%s] (want [suite] or [[matrix]])", t.line, t.name)
		}
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

func mapSuiteTable(t *tomlTable, spec *SuiteSpec) error {
	for _, kv := range t.keys {
		switch kv.key {
		case "name":
			s, err := asString(kv)
			if err != nil {
				return err
			}
			spec.Name = s
		case "runs":
			n, err := asInt(kv)
			if err != nil {
				return err
			}
			spec.Runs = n
		default:
			return fmt.Errorf("suite spec: line %d: unknown key %q in [suite] (known: name, runs)", kv.line, kv.key)
		}
	}
	return nil
}

func mapMatrixTable(t *tomlTable) (Matrix, error) {
	m := Matrix{Chunks: 4, Box: [3]int{16, 16, 16}, Rate: 200, Seconds: 3, Clients: 8}
	for _, kv := range t.keys {
		var err error
		switch kv.key {
		case "datasets":
			m.Datasets, err = asStringArray(kv)
		case "codecs":
			m.Codecs, err = asStringArray(kv)
		case "bounds":
			m.Bounds, err = asFloatArray(kv)
		case "workers":
			m.Workers, err = asIntArray(kv)
		case "workloads":
			m.Workloads, err = asStringArray(kv)
		case "chunks":
			m.Chunks, err = asInt(kv)
		case "rate":
			if kv.val.kind != tomlNumber {
				err = fmt.Errorf("suite spec: line %d: rate must be a number", kv.line)
			} else {
				m.Rate = kv.val.num
			}
		case "seconds":
			m.Seconds, err = asInt(kv)
		case "clients":
			m.Clients, err = asInt(kv)
		case "box":
			var dims []int
			dims, err = asIntArray(kv)
			if err == nil && len(dims) != 3 {
				err = fmt.Errorf("suite spec: line %d: box wants [z, y, x], got %d dims", kv.line, len(dims))
			}
			if err == nil {
				copy(m.Box[:], dims)
			}
		default:
			err = fmt.Errorf("suite spec: line %d: unknown key %q in [[matrix]] (known: datasets, codecs, bounds, workers, workloads, chunks, box, rate, seconds, clients)", kv.line, kv.key)
		}
		if err != nil {
			return Matrix{}, err
		}
	}
	if len(m.Workers) == 0 {
		m.Workers = []int{1}
	}
	return m, nil
}

func asString(kv tomlKV) (string, error) {
	if kv.val.kind != tomlString {
		return "", fmt.Errorf("suite spec: line %d: %s must be a string, got %s", kv.line, kv.key, kv.val.kind)
	}
	return kv.val.str, nil
}

func asInt(kv tomlKV) (int, error) {
	if kv.val.kind != tomlNumber || kv.val.num != math.Trunc(kv.val.num) {
		return 0, fmt.Errorf("suite spec: line %d: %s must be an integer", kv.line, kv.key)
	}
	return int(kv.val.num), nil
}

func asStringArray(kv tomlKV) ([]string, error) {
	if kv.val.kind != tomlArray {
		return nil, fmt.Errorf("suite spec: line %d: %s must be an array of strings", kv.line, kv.key)
	}
	out := make([]string, 0, len(kv.val.arr))
	for _, v := range kv.val.arr {
		if v.kind != tomlString {
			return nil, fmt.Errorf("suite spec: line %d: %s elements must be strings, got %s", kv.line, kv.key, v.kind)
		}
		out = append(out, v.str)
	}
	return out, nil
}

func asFloatArray(kv tomlKV) ([]float64, error) {
	if kv.val.kind != tomlArray {
		return nil, fmt.Errorf("suite spec: line %d: %s must be an array of numbers", kv.line, kv.key)
	}
	out := make([]float64, 0, len(kv.val.arr))
	for _, v := range kv.val.arr {
		if v.kind != tomlNumber {
			return nil, fmt.Errorf("suite spec: line %d: %s elements must be numbers, got %s", kv.line, kv.key, v.kind)
		}
		out = append(out, v.num)
	}
	return out, nil
}

func asIntArray(kv tomlKV) ([]int, error) {
	fs, err := asFloatArray(kv)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(fs))
	for i, f := range fs {
		if f != math.Trunc(f) {
			return nil, fmt.Errorf("suite spec: line %d: %s elements must be integers", kv.line, kv.key)
		}
		out[i] = int(f)
	}
	return out, nil
}

// Validate checks the spec's invariants: a named suite with a positive run
// count, every matrix dimension non-empty and known, every dataset name
// resolvable, and cell names unique across the whole suite.
func (s *SuiteSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("suite: missing suite name")
	}
	if s.Runs < 1 {
		return fmt.Errorf("suite %q: runs must be >= 1, got %d", s.Name, s.Runs)
	}
	if len(s.Matrices) == 0 {
		return fmt.Errorf("suite %q: no [[matrix]] sections", s.Name)
	}
	for i, m := range s.Matrices {
		if err := m.validate(); err != nil {
			return fmt.Errorf("suite %q: matrix %d: %w", s.Name, i+1, err)
		}
	}
	_, err := s.Cells()
	return err
}

func (m *Matrix) validate() error {
	for _, req := range []struct {
		name string
		n    int
	}{
		{"datasets", len(m.Datasets)},
		{"codecs", len(m.Codecs)},
		{"bounds", len(m.Bounds)},
		{"workloads", len(m.Workloads)},
	} {
		if req.n == 0 {
			return fmt.Errorf("empty %s", req.name)
		}
	}
	for _, name := range m.Datasets {
		gen, _, _, err := datasets.ParseName(name)
		if err != nil {
			return err
		}
		if _, err := datasets.Lookup(gen); err != nil {
			return err
		}
	}
	for _, w := range m.Workloads {
		if !contains(knownWorkloads, w) {
			return fmt.Errorf("unknown workload %q (known: %s)", w, strings.Join(knownWorkloads, ", "))
		}
	}
	for _, c := range m.Codecs {
		if _, err := codec.Lookup(c); err != nil {
			return err
		}
	}
	for _, b := range m.Bounds {
		if !(b > 0) || math.IsInf(b, 0) {
			return fmt.Errorf("error bounds must be finite and > 0, got %g", b)
		}
	}
	for _, w := range m.Workers {
		if w < 1 {
			return fmt.Errorf("workers must be >= 1, got %d", w)
		}
	}
	if m.Chunks < 1 {
		return fmt.Errorf("chunks must be >= 1, got %d", m.Chunks)
	}
	for _, d := range m.Box {
		if d < 1 {
			return fmt.Errorf("box dims must be >= 1, got %v", m.Box)
		}
	}
	if contains(m.Workloads, WorkloadSoak) {
		if !(m.Rate > 0) || math.IsInf(m.Rate, 0) {
			return fmt.Errorf("soak rate must be finite and > 0, got %g", m.Rate)
		}
		if m.Seconds < 1 {
			return fmt.Errorf("soak seconds must be >= 1, got %d", m.Seconds)
		}
		if m.Clients < 1 {
			return fmt.Errorf("soak clients must be >= 1, got %d", m.Clients)
		}
	}
	return nil
}

// Cells expands the matrices into the full resolved cell list, in spec
// order, failing on duplicate cell names (two matrices producing the same
// cell would silently overwrite each other's results).
func (s *SuiteSpec) Cells() ([]Cell, error) {
	var cells []Cell
	seen := map[string]bool{}
	for _, m := range s.Matrices {
		for _, ds := range m.Datasets {
			for _, cd := range m.Codecs {
				for _, eb := range m.Bounds {
					for _, w := range m.Workers {
						for _, wl := range m.Workloads {
							c := Cell{
								Dataset: ds, Codec: cd, EB: eb,
								Workers: w, Workload: wl,
								Chunks: m.Chunks, Box: m.Box,
								Rate: m.Rate, Seconds: m.Seconds, Clients: m.Clients,
							}
							c.Name = c.cellName()
							if seen[c.Name] {
								return nil, fmt.Errorf("suite %q: duplicate cell %s", s.Name, c.Name)
							}
							seen[c.Name] = true
							cells = append(cells, c)
						}
					}
				}
			}
		}
	}
	return cells, nil
}

// cellName builds the deterministic benchmark name of one cell:
// StzSuite/<dataset>/<codec>/eb<bound>/w<workers>/<workload>.
func (c *Cell) cellName() string {
	return fmt.Sprintf("StzSuite/%s/%s/eb%s/w%d/%s",
		c.Dataset, c.Codec, strconv.FormatFloat(c.EB, 'g', -1, 64), c.Workers, c.Workload)
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// sortedCellNames is a test helper surface: the deterministic name list of
// a spec's cells.
func sortedCellNames(s *SuiteSpec) ([]string, error) {
	cells, err := s.Cells()
	if err != nil {
		return nil, err
	}
	names := make([]string, len(cells))
	for i, c := range cells {
		names[i] = c.Name
	}
	sort.Strings(names)
	return names, nil
}
