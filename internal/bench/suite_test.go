package bench

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stz/internal/benchfmt"
	"stz/internal/grid"
)

var update = flag.Bool("update", false, "rewrite golden files")

const sampleSuite = `# comment line
[suite]
name = "quick"        # trailing comment
runs = 2

[[matrix]]
datasets = ["Nyx-12x10x9-s1001"]
codecs = ["sz3", "zfp"]
bounds = [1e-3]
workers = [1]
workloads = ["compress", "decompress", "box", "http"]
chunks = 2
box = [4, 4, 4]

[[matrix]]
datasets = ["Nyx-12x10x9-s1001"]
codecs = ["stz"]
bounds = [1e-3]
workloads = ["compress"]
`

func TestParseSuite(t *testing.T) {
	spec, err := ParseSuite(strings.NewReader(sampleSuite))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "quick" || spec.Runs != 2 || len(spec.Matrices) != 2 {
		t.Fatalf("spec = %+v", spec)
	}
	m := spec.Matrices[0]
	if m.Chunks != 2 || m.Box != [3]int{4, 4, 4} || len(m.Workloads) != 4 {
		t.Fatalf("matrix = %+v", m)
	}
	// Defaults: the second matrix omitted workers, chunks, box.
	m2 := spec.Matrices[1]
	if len(m2.Workers) != 1 || m2.Workers[0] != 1 || m2.Chunks != 4 || m2.Box != [3]int{16, 16, 16} {
		t.Fatalf("defaults not applied: %+v", m2)
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*4+1 {
		t.Fatalf("%d cells, want 9", len(cells))
	}
}

func TestCellNamesDeterministic(t *testing.T) {
	spec, err := ParseSuite(strings.NewReader(sampleSuite))
	if err != nil {
		t.Fatal(err)
	}
	names, err := sortedCellNames(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"StzSuite/Nyx-12x10x9-s1001/stz/eb0.001/w1/compress",
		"StzSuite/Nyx-12x10x9-s1001/sz3/eb0.001/w1/box",
		"StzSuite/Nyx-12x10x9-s1001/sz3/eb0.001/w1/compress",
		"StzSuite/Nyx-12x10x9-s1001/sz3/eb0.001/w1/decompress",
		"StzSuite/Nyx-12x10x9-s1001/sz3/eb0.001/w1/http",
		"StzSuite/Nyx-12x10x9-s1001/zfp/eb0.001/w1/box",
		"StzSuite/Nyx-12x10x9-s1001/zfp/eb0.001/w1/compress",
		"StzSuite/Nyx-12x10x9-s1001/zfp/eb0.001/w1/decompress",
		"StzSuite/Nyx-12x10x9-s1001/zfp/eb0.001/w1/http",
	}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("name[%d] = %q, want %q", i, names[i], want[i])
		}
	}
	// Re-parsing yields the same names (the commitment a baseline compare
	// depends on).
	again, _ := ParseSuite(strings.NewReader(sampleSuite))
	names2, _ := sortedCellNames(again)
	for i := range names {
		if names[i] != names2[i] {
			t.Fatal("cell names differ across parses")
		}
	}
}

// TestParseSuiteErrors locks in the exact error classes of the spec
// parser: bad TOML syntax, unknown sections/keys, unknown codecs,
// unknown workloads, bad corpus names, and duplicate cells.
func TestParseSuiteErrors(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{"not-toml", "what even is this", "expected key = value"},
		{"unterminated-string", "[suite]\nname = \"oops", "unterminated string"},
		{"key-outside-section", "runs = 3", "outside any [section]"},
		{"unknown-section", "[suit]\nname = \"x\"", "unknown section [suit]"},
		{"unknown-suite-key", "[suite]\nname = \"x\"\nrunz = 3", `unknown key "runz" in [suite]`},
		{"unknown-matrix-key", "[suite]\nname = \"x\"\n[[matrix]]\ncodec = [\"sz3\"]", `unknown key "codec" in [[matrix]]`},
		{"duplicate-key", "[suite]\nname = \"x\"\nname = \"y\"", `duplicate key "name"`},
		{"suite-as-array", "[[suite]]\nname = \"x\"", "[suite] must be a plain table"},
		{"matrix-as-table", "[suite]\nname = \"x\"\n[matrix]\ncodecs = [\"sz3\"]", "declared as [[matrix]]"},
		{"runs-not-integer", "[suite]\nname = \"x\"\nruns = 1.5", "runs must be an integer"},
		{"no-matrices", "[suite]\nname = \"x\"", "no [[matrix]] sections"},
		{"unknown-codec", "[suite]\nname = \"x\"\n[[matrix]]\ndatasets = [\"Nyx-8x8x8-s1\"]\ncodecs = [\"lz4\"]\nbounds = [0.001]\nworkloads = [\"compress\"]", `unknown codec "lz4"`},
		{"unknown-workload", "[suite]\nname = \"x\"\n[[matrix]]\ndatasets = [\"Nyx-8x8x8-s1\"]\ncodecs = [\"sz3\"]\nbounds = [0.001]\nworkloads = [\"roundtrip\"]", `unknown workload "roundtrip"`},
		{"bad-dataset", "[suite]\nname = \"x\"\n[[matrix]]\ndatasets = [\"Nyx\"]\ncodecs = [\"sz3\"]\nbounds = [0.001]\nworkloads = [\"compress\"]", "corpus name"},
		{"unknown-generator", "[suite]\nname = \"x\"\n[[matrix]]\ndatasets = [\"CESM-8x8x8-s1\"]\ncodecs = [\"sz3\"]\nbounds = [0.001]\nworkloads = [\"compress\"]", `unknown generator "CESM"`},
		{"bad-bound", "[suite]\nname = \"x\"\n[[matrix]]\ndatasets = [\"Nyx-8x8x8-s1\"]\ncodecs = [\"sz3\"]\nbounds = [0]\nworkloads = [\"compress\"]", "bounds must be finite and > 0"},
		{"duplicate-cell", "[suite]\nname = \"x\"\n[[matrix]]\ndatasets = [\"Nyx-8x8x8-s1\"]\ncodecs = [\"sz3\", \"sz3\"]\nbounds = [0.001]\nworkloads = [\"compress\"]", "duplicate cell"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSuite(strings.NewReader(tc.spec))
			if err == nil {
				t.Fatalf("spec accepted:\n%s", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestCellAggMinOfN(t *testing.T) {
	agg := newCellAgg("StzSuite/x")
	agg.observeNs(300 * time.Nanosecond)
	agg.observeNs(150 * time.Nanosecond)
	agg.observeNs(200 * time.Nanosecond)
	agg.observe("ratio", 12.5)
	agg.observe("ratio", 12.0)
	agg.observe("psnr_db", 80)
	agg.set("pool-hit-%", 95)
	agg.set("pool-hit-%", 97) // set overwrites, not folds
	res := agg.result()
	if res.NsPerOp != 150 {
		t.Fatalf("ns = %g, want min 150", res.NsPerOp)
	}
	want := map[string]float64{"ratio": 12.0, "psnr_db": 80, "pool-hit-%": 97}
	if len(res.Metrics) != len(want) {
		t.Fatalf("metrics = %+v", res.Metrics)
	}
	for _, m := range res.Metrics {
		if want[m.Unit] != m.Value {
			t.Fatalf("%s = %g, want %g", m.Unit, m.Value, want[m.Unit])
		}
	}
	// Metric order is insertion order, stable for emission.
	if res.Metrics[0].Unit != "ratio" || res.Metrics[2].Unit != "pool-hit-%" {
		t.Fatalf("metric order %+v", res.Metrics)
	}
}

func TestClampPSNR(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{80, 80}, {math.Inf(1), MaxPSNR}, {math.Inf(-1), -MaxPSNR}, {math.NaN(), 0}, {1e6, MaxPSNR},
	} {
		if got := clampPSNR(tc.in); got != tc.want {
			t.Fatalf("clampPSNR(%g) = %g, want %g", tc.in, got, tc.want)
		}
	}
}

// TestRunSuiteAllWorkloads drives the full engine over a tiny corpus: all
// four workloads on a registry codec plus compress on stz, checking every
// cell emits ns/op and its workload's metrics.
func TestRunSuiteAllWorkloads(t *testing.T) {
	spec, err := ParseSuite(strings.NewReader(`
[suite]
name = "t"
runs = 1

[[matrix]]
datasets = ["Nyx-12x10x9-s1001"]
codecs = ["sz3"]
bounds = [1e-3]
workloads = ["compress", "decompress", "box", "http"]
chunks = 2
box = [4, 4, 4]

[[matrix]]
datasets = ["WarpX-12x8x8-s1002"]
codecs = ["stz"]
bounds = [1e-3]
workloads = ["compress", "box", "http"]
chunks = 2
box = [4, 4, 4]
`))
	if err != nil {
		t.Fatal(err)
	}
	results, err := RunSuite(spec, 0, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 7 {
		t.Fatalf("%d results, want 7", len(results))
	}
	units := func(r CellResult) map[string]float64 {
		m := map[string]float64{}
		for _, cm := range r.Metrics {
			m[cm.Unit] = cm.Value
		}
		return m
	}
	for _, r := range results {
		if !(r.NsPerOp > 0) || math.IsInf(r.NsPerOp, 0) {
			t.Fatalf("%s: ns/op = %g", r.Name, r.NsPerOp)
		}
		u := units(r)
		switch {
		case strings.HasSuffix(r.Name, "/box"):
			if !(u["readB/voxel"] > 0) || !(u["psnr_db"] > 0) {
				t.Fatalf("%s metrics: %+v", r.Name, r.Metrics)
			}
		default:
			if !(u["ratio"] > 1) || !(u["psnr_db"] > 0) {
				t.Fatalf("%s metrics: %+v", r.Name, r.Metrics)
			}
		}
	}
	entries := SuiteEntries(results, 1)
	for _, e := range entries {
		if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
			t.Fatalf("non-finite entry %+v", e)
		}
	}
}

// TestBoxCellFreshReaderAccounting checks the per-run re-open actually
// keeps bytes-read deterministic: with 2 runs the minimum must equal the
// cold-read cost, not a cache-warmed zero.
func TestBoxCellFreshReaderAccounting(t *testing.T) {
	c := Cell{
		Dataset: "Nyx-12x10x9-s1001", Codec: "zfp", EB: 1e-3,
		Workers: 1, Workload: WorkloadBox, Chunks: 2, Box: [3]int{4, 4, 4},
	}
	c.Name = c.cellName()
	ress, err := runCell(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := ress[0]
	for _, m := range res.Metrics {
		if m.Unit == "readB/voxel" {
			if !(m.Value > 0) {
				t.Fatalf("readB/voxel = %g; slab cache leaked across runs", m.Value)
			}
			return
		}
	}
	t.Fatalf("no readB/voxel metric: %+v", res.Metrics)
}

// TestSuiteEntriesGolden locks the emitted BENCH JSON schema: fixed cell
// results and a fixed commit serialize to a byte-stable document.
func TestSuiteEntriesGolden(t *testing.T) {
	results := []CellResult{
		{
			Name: "StzSuite/Nyx-12x10x9-s1001/sz3/eb0.001/w1/compress", NsPerOp: 1234567,
			Metrics: []CellMetric{
				{Unit: "ratio", Value: 12.5},
				{Unit: "psnr_db", Value: 81.25},
				{Unit: "max_abs_err", Value: 0.00098},
				{Unit: "pool-hit-%", Value: 96.5},
			},
		},
		{
			Name: "StzSuite/Nyx-12x10x9-s1001/sz3/eb0.001/w1/box", NsPerOp: 45678,
			Metrics: []CellMetric{
				{Unit: "readB/voxel", Value: 3.75},
				{Unit: "psnr_db", Value: 80.5},
			},
		},
	}
	run := benchfmt.Run{
		Commit: benchfmt.Commit{
			Author:    benchfmt.Author{Name: "stz-suite"},
			Committer: benchfmt.Author{Name: "stz-suite"},
			ID:        "0123456789abcdef",
			Message:   "suite t",
			Timestamp: "2026-08-08T00:00:00Z",
		},
		Date: 1785974400000, Tool: "go",
		Benches: SuiteEntries(results, 3),
	}
	f := benchfmt.NewFile("https://example.com/stz", run)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "golden_bench.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("emitted BENCH JSON drifted from %s:\n%s", golden, got)
	}
}

func TestCenteredBoxClipped(t *testing.T) {
	g := grid.New[float32](6, 10, 20)
	b := centeredBox(g, [3]int{16, 16, 16})
	if b.Z0 != 0 || b.Z1 != 6 || b.Y1-b.Y0 != 10 || b.X1-b.X0 != 16 {
		t.Fatalf("box %+v", b)
	}
	if b.X0 != 2 || b.X1 != 18 {
		t.Fatalf("box not centered: %+v", b)
	}
}

func FuzzSuiteSpec(f *testing.F) {
	f.Add(sampleSuite)
	f.Add("[suite]\nname = \"x\"\nruns = 1\n[[matrix]]\ndatasets = [\"Nyx-8x8x8-s1\"]\ncodecs = [\"sz3\"]\nbounds = [0.001]\nworkloads = [\"compress\"]\n")
	f.Add("[suite]\nname = \"\\\"quoted\\\"\"")
	f.Add("key = [1, [2]]")
	f.Add("[[m]]\nx = \"#not a comment\" # comment")
	f.Fuzz(func(t *testing.T, input string) {
		spec, err := ParseSuite(strings.NewReader(input))
		if err != nil {
			return
		}
		// Anything that parses must expand without panicking and with the
		// invariants Validate promised.
		cells, err := spec.Cells()
		if err != nil {
			t.Fatalf("Validate passed but Cells failed: %v", err)
		}
		seen := map[string]bool{}
		for _, c := range cells {
			if seen[c.Name] {
				t.Fatalf("duplicate cell name %q survived validation", c.Name)
			}
			seen[c.Name] = true
			if !strings.HasPrefix(c.Name, "StzSuite/") {
				t.Fatalf("cell name %q missing prefix", c.Name)
			}
		}
	})
}
