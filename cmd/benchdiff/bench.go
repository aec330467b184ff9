package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"stz/internal/benchfmt"
)

// Entry aliases the shared series-point schema; parsing and merging live
// in internal/benchfmt so cmd/stzload emits the same shape.
type Entry = benchfmt.Entry

// Regression is one benchmark metric that worsened beyond its threshold.
type Regression struct {
	Name     string
	Unit     string // "ns/op", "allocs/op", or a gated custom unit
	Old, New float64
	Ratio    float64 // degradation ratio (already direction-adjusted)
}

// metricGate gates one custom benchmark unit (compression ratio, PSNR,
// bytes-read-per-voxel, …) with its own threshold and direction. The
// degradation ratio is new/old for lower-is-better units and old/new for
// higher-is-better ones, so a gate always fails when degradation exceeds
// the threshold regardless of the unit's sense.
type metricGate struct {
	unit      string
	threshold float64
	higher    bool // true when larger values are better
}

// parseMetricGate parses "unit:threshold[:higher|lower]" (default lower).
func parseMetricGate(s string) (metricGate, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return metricGate{}, fmt.Errorf("metric gate %q: want unit:threshold[:higher|lower]", s)
	}
	g := metricGate{unit: parts[0]}
	if g.unit == "" {
		return metricGate{}, fmt.Errorf("metric gate %q: empty unit", s)
	}
	th, err := strconv.ParseFloat(parts[1], 64)
	if err != nil || !(th > 1) {
		return metricGate{}, fmt.Errorf("metric gate %q: threshold must be a ratio > 1", s)
	}
	g.threshold = th
	if len(parts) == 3 {
		switch parts[2] {
		case "higher":
			g.higher = true
		case "lower":
		default:
			return metricGate{}, fmt.Errorf("metric gate %q: direction must be higher or lower", s)
		}
	}
	return g, nil
}

// compareEntries gates new against old: any ns/op entry whose value grew
// beyond threshold× the baseline (and is above minNs, a noise floor for
// ultra-short benchmarks) is a regression; any entry whose allocs/op grew
// beyond allocThreshold× the baseline (and is above minAllocs —
// pool-warm-up jitter on nearly allocation-free benchmarks must not trip
// the gate) is a memory regression; and any entry whose unit matches a
// metric gate fails when its direction-adjusted degradation exceeds the
// gate's threshold. It returns the regressions plus human-readable notes
// about benchmarks present in only one file.
func compareEntries(old, new []Entry, threshold, minNs, allocThreshold, minAllocs float64, gates []metricGate) ([]Regression, []string) {
	baseline := make(map[string]Entry, len(old))
	for _, e := range old {
		baseline[e.Name] = e
	}
	gateByUnit := make(map[string]metricGate, len(gates))
	for _, g := range gates {
		gateByUnit[g.unit] = g
	}
	var regs []Regression
	var notes []string
	seen := make(map[string]bool)
	for _, e := range new {
		if g, ok := gateByUnit[e.Unit]; ok && e.Unit != "ns/op" {
			b, ok := baseline[e.Name]
			if !ok {
				continue // the cell's ns/op entry already produces the note
			}
			deg := degradation(b.Value, e.Value, g.higher)
			if deg > g.threshold {
				regs = append(regs, Regression{Name: e.Name, Unit: e.Unit, Old: b.Value, New: e.Value, Ratio: deg})
			}
			continue
		}
		if e.Unit != "ns/op" {
			continue
		}
		seen[e.Name] = true
		b, ok := baseline[e.Name]
		if !ok {
			notes = append(notes, fmt.Sprintf("new benchmark (no baseline): %s", e.Name))
			continue
		}
		if e.Value > minNs && b.Value > 0 {
			if ratio := e.Value / b.Value; ratio > threshold {
				regs = append(regs, Regression{Name: e.Name, Unit: "ns/op", Old: b.Value, New: e.Value, Ratio: ratio})
			}
		}
		if allocThreshold > 0 && e.AllocsPerOp != nil && b.AllocsPerOp != nil &&
			*e.AllocsPerOp > minAllocs {
			// A zero-alloc baseline is the steady state the pools exist to
			// hold; any later climb above the noise floor is a regression
			// even though no finite ratio exists.
			ratio := math.Inf(1)
			if *b.AllocsPerOp > 0 {
				ratio = *e.AllocsPerOp / *b.AllocsPerOp
			}
			if ratio > allocThreshold {
				regs = append(regs, Regression{
					Name: e.Name, Unit: "allocs/op",
					Old: *b.AllocsPerOp, New: *e.AllocsPerOp, Ratio: ratio,
				})
			}
		}
	}
	for name, b := range baseline {
		if b.Unit == "ns/op" && !seen[name] {
			notes = append(notes, fmt.Sprintf("benchmark disappeared: %s", name))
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Ratio > regs[j].Ratio })
	sort.Strings(notes)
	return regs, notes
}

// degradation is the direction-adjusted worsening ratio: how many times
// worse new is than old. Matching zeros degrade by 1 (no change); a value
// collapsing to the bad side of zero degrades infinitely.
func degradation(old, new float64, higher bool) float64 {
	if !higher {
		old, new = new, old // now "old" is the numerator of worse/better
	}
	if old == new {
		return 1
	}
	if new == 0 {
		return math.Inf(1)
	}
	return old / new
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	in := fs.String("in", "-", "go test -bench output (- for stdin)")
	out := fs.String("out", "-", "output JSON file (- for stdout)")
	fs.Parse(args)
	r, err := readInput(*in)
	if err != nil {
		return err
	}
	defer r.Close()
	entries, err := benchfmt.ParseGoBench(r)
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("no benchmark lines found in %s", *in)
	}
	return writeJSON(*out, entries)
}

func cmdCompare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	oldPath := fs.String("old", "", "baseline: convert output or a BENCH_<date>.json document")
	newPath := fs.String("new", "", "current: convert output or a BENCH_<date>.json document")
	threshold := fs.Float64("threshold", 1.30, "failure ratio: new/old ns/op above this fails")
	minNs := fs.Float64("min-ns", 0, "ignore benchmarks at or below this many ns/op (noise floor)")
	allocThreshold := fs.Float64("alloc-threshold", 1.30,
		"failure ratio: new/old allocs/op above this fails (0 disables the memory gate)")
	minAllocs := fs.Float64("min-allocs", 10,
		"ignore allocs/op gating at or below this many allocations (noise floor)")
	var gates []metricGate
	fs.Func("metric", "gate a custom unit: unit:threshold[:higher|lower] (repeatable, e.g. ratio:1.5:higher)",
		func(s string) error {
			g, err := parseMetricGate(s)
			if err != nil {
				return err
			}
			gates = append(gates, g)
			return nil
		})
	fs.Parse(args)
	if *oldPath == "" || *newPath == "" {
		return fmt.Errorf("compare: -old and -new required")
	}
	load := func(path string) ([]Entry, error) {
		r, err := readInput(path)
		if err != nil {
			return nil, err
		}
		defer r.Close()
		entries, err := benchfmt.ReadSeries(r)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return entries, nil
	}
	oldE, err := load(*oldPath)
	if err != nil {
		return err
	}
	newE, err := load(*newPath)
	if err != nil {
		return err
	}
	regs, notes := compareEntries(oldE, newE, *threshold, *minNs, *allocThreshold, *minAllocs, gates)
	for _, n := range notes {
		fmt.Println("note:", n)
	}
	if len(regs) == 0 {
		fmt.Printf("ok: no ns/op, allocs/op or gated-metric regressions beyond %.2fx across %d benchmarks\n",
			*threshold, len(newE))
		return nil
	}
	for _, r := range regs {
		fmt.Printf("REGRESSION %s: %g -> %g %s (%.2fx worse)\n",
			r.Name, r.Old, r.New, r.Unit, r.Ratio)
	}
	return fmt.Errorf("%d benchmark metric(s) regressed", len(regs))
}

// cmdValidate checks that a BENCH_<date>.json document is schema-valid —
// the CI smoke assertion for freshly emitted suite runs.
func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	in := fs.String("in", "-", "BENCH_<date>.json document (- for stdin)")
	fs.Parse(args)
	r, err := readInput(*in)
	if err != nil {
		return err
	}
	defer r.Close()
	var f benchfmt.File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return fmt.Errorf("%s: not a BENCH document: %w", *in, err)
	}
	if err := f.Validate(); err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}
	fmt.Printf("ok: %s is schema-valid (%d benches in the newest run)\n", *in, len(f.Latest()))
	return nil
}
