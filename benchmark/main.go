// Command benchmark is the repository's benchmark: the only source of
// performance claims. See README.md beside it and BENCHMARK.json at the
// repository root.
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash benchmark/run.sh -all            every workload, untraced then traced, one process each
//	bash benchmark/run.sh -aa 5           A/A table: every workload 5 times against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "workload to run (see pins.json)")
	seed := flag.Int64("seed", 1, "input seed: corpus, box positions, zipf draws, op shuffles")
	seconds := flag.Float64("seconds", 0, "timed window in seconds (default: pins.json)")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	all := flag.Bool("all", false, "run every workload, untraced and traced, each in its own process")
	aa := flag.Int("aa", 0, "run every workload N times and print the A/A table")
	flag.Parse()

	pins, err := loadPins()
	if err != nil {
		die(err)
	}
	if *seconds <= 0 {
		*seconds = float64(pins.Params.Seconds)
	}
	switch {
	case *aa > 0:
		err = runAA(pins, *aa, *seed, *seconds)
	case *all:
		err = runAll(pins, *seed, *seconds)
	default:
		w, ok := pins.workload(*workload)
		if !ok {
			die(fmt.Errorf("unknown workload %q", *workload))
		}
		var rep *report
		if rep, err = execute(pins, pins.Params, w, *seed, *seconds, *trace == 1); err == nil {
			noteEnvironment(pins, rep)
			printReport(rep, *trace == 1)
			if !rep.Correct {
				os.Exit(1)
			}
		}
	}
	if err != nil {
		die(err)
	}
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// noteEnvironment says when the run is not on the pinned toolchain or core
// count; the numbers are still printed, but not comparable with committed ones.
func noteEnvironment(pins Pins, rep *report) {
	if v := runtime.Version(); v != pins.GoVersion {
		rep.Notes = append(rep.Notes, fmt.Sprintf("Go %s, pinned %s", v, pins.GoVersion))
	}
	if n := runtime.NumCPU(); n != pins.NProc {
		rep.Notes = append(rep.Notes, fmt.Sprintf("nproc %d, pinned %d", n, pins.NProc))
	}
}

// resultLine is the machine-readable last line of a run.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints one "workload metric value unit n=samples" line per
// metric of the run's table, the notes, and the JSON result as the last line.
func printReport(rep *report, trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricJSON{}}
	for _, d := range defs {
		v := rep.Metrics[d.Name]
		fmt.Printf("%s %s %s %s n=%d\n", rep.Workload, d.Name, strconv.FormatFloat(v.v, 'g', -1, 64), d.Unit, v.n)
		line.Metrics[d.Name] = metricJSON{v.v, d.Unit}
	}
	fmt.Printf("%s operations attempted=%d failed=%d correct=%v\n", rep.Workload, rep.Attempted, rep.Failed, rep.Correct)
	for _, n := range rep.Notes {
		fmt.Printf("%s note: %s\n", rep.Workload, n)
	}
	buf, err := json.Marshal(line)
	if err != nil {
		die(err)
	}
	fmt.Println(string(buf))
}

// child runs this binary again for one workload and returns the decoded
// last line of its output; echo copies the child's output through.
func child(workload string, seed int64, seconds float64, trace int, echo bool) (resultLine, error) {
	var res resultLine
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if echo {
		os.Stdout.Write(out)
	}
	if err != nil {
		return res, fmt.Errorf("workload %s: %w", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return res, json.Unmarshal([]byte(lines[len(lines)-1]), &res)
}

// runAll runs every workload in its own process, so peak RSS and GC state
// are the workload's own.
func runAll(pins Pins, seed int64, seconds float64) error {
	for _, w := range pins.Workloads {
		for trace := 0; trace <= 1; trace++ {
			if _, err := child(w.Name, seed, seconds, trace, true); err != nil {
				return err
			}
		}
	}
	return nil
}

// runAA runs every workload n times on the same code and seed and prints,
// per end-to-end metric, the median, the quartiles, the quartile spread and
// the largest pairwise difference as shares of the median, against the
// metric's bound. A metric that misses its bound gets a longer window or a
// lower ladder, not a wider bound.
func runAA(pins Pins, n int, seed int64, seconds float64) error {
	fmt.Printf("| workload | metric | median | q1 | q3 | iqr/median | max pair diff | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range pins.Workloads {
		vals := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := child(w.Name, seed, seconds, 0, false)
			if err != nil {
				return err
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("workload %s run %d: correct=%v failed=%d", w.Name, i, res.Correct, res.Failed)
			}
			for name, m := range res.Metrics {
				vals[name] = append(vals[name], m.Value)
			}
		}
		for _, d := range endToEnd {
			v := append([]float64(nil), vals[d.Name]...)
			sort.Float64s(v)
			med, q1, q3 := median(v), quantile(v, 0.25), quantile(v, 0.75)
			pair := frac(v[len(v)-1]-v[0], med)
			verdict := "ok"
			if pair > d.Bound {
				verdict = "MISSES"
			}
			fmt.Printf("| %s | %s | %.5g | %.5g | %.5g | %.4f | %.4f | %g | %s |\n",
				w.Name, d.Name, med, q1, q3, frac(q3-q1, med), pair, d.Bound, verdict)
		}
	}
	return nil
}
