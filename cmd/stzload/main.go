// Command stzload is a fixed-rate open-loop load generator for stzd: it
// schedules every request by intended start time (so queueing delay is
// charged to latency — no coordinated omission), drives a mixed
// box/section/compress/decompress/PUT workload, records per-endpoint
// latencies in HDR-style histograms, and emits the same
// window.BENCHMARK_DATA documents as cmd/stzsuite.
//
//	go run ./cmd/stzload -duration 10s -out soak.json
//	go run ./cmd/stzload -target http://stzd-host:8321 -rate 500 -clients 16
//	GOMEMLIMIT=256MiB GOGC=50 go run ./cmd/stzload   # GC A/B runs
//
// Without -target the generator embeds an in-process stzd (the handler
// cmd/stzd serves), so the Go runtime's own GOMEMLIMIT and GOGC variables
// tune the server too: run the same schedule under different GC regimes
// and diff the tails.
//
// The default flags reproduce the single cell of suites/soak.toml, so an
// emitted document is name-compatible with the committed
// bench/BENCH_*_soak.json baseline and `benchdiff compare` can gate p99
// and p999/p50 inflation against it — the stzload-soak CI leg does
// exactly that.
//
// Reported per cell and per endpoint (<cell>/<op>): p50 as ns/op, then
// p99_ns, p999_ns, max_ns and the p999/p50 inflation ratio; the cell
// aggregate adds qps and ok-%.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"stz/internal/bench"
	"stz/internal/benchfmt"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stzload: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("stzload", flag.ExitOnError)
	dataset := fs.String("dataset", "Nyx-48x40x44-s1001", "self-describing corpus name")
	codecName := fs.String("codec", "sz3", "registry codec")
	eb := fs.Float64("eb", 1e-3, "value-range-relative error bound")
	workers := fs.Int("workers", 2, "codec workers per job on the server")
	chunks := fs.Int("chunks", 4, "encode-time z-slab count of the query archive")
	boxDims := fs.String("box", "16x16x16", "query window dims (ZxYxX)")
	rate := fs.Float64("rate", 200, "offered load in requests/s")
	duration := fs.Duration("duration", 3*time.Second, "schedule length per run")
	clients := fs.Int("clients", 8, "worker-pool size (max in-flight requests)")
	runs := fs.Int("runs", 1, "schedule repetitions; minimum per metric is reported")
	target := fs.String("target", "", "external stzd base URL (default: in-process server)")
	out := fs.String("out", "", "output BENCH JSON path (default bench/BENCH_<date>_soak.json)")
	commit := fs.String("commit", "", "commit id to record (default: git rev-parse HEAD)")
	repoURL := fs.String("repo", "https://github.com/stz/stz", "repository URL recorded in the document")
	fs.Parse(args)

	var bz, by, bx int
	if _, err := fmt.Sscanf(*boxDims, "%dx%dx%d", &bz, &by, &bx); err != nil {
		return fmt.Errorf("-box wants ZxYxX, got %q", *boxDims)
	}
	seconds := int((*duration + time.Second - 1) / time.Second)
	if seconds < 1 {
		seconds = 1
	}
	cell := bench.MakeCell(bench.Cell{
		Dataset: *dataset, Codec: *codecName, EB: *eb,
		Workers: *workers, Workload: bench.WorkloadSoak,
		Chunks: *chunks, Box: [3]int{bz, by, bx},
		Rate: *rate, Seconds: seconds, Clients: *clients,
		Target: *target,
	})
	where := "in-process stzd"
	if *target != "" {
		where = *target
	}
	log.Printf("%s: %g req/s x %ds x %d runs against %s", cell.Name, *rate, seconds, *runs, where)

	start := time.Now()
	results, err := bench.RunCell(cell, *runs)
	if err != nil {
		return err
	}
	log.Printf("completed in %s", time.Since(start).Round(time.Millisecond))
	for _, r := range results {
		log.Printf("  %-60s p50 %s  %s", r.Name,
			time.Duration(r.NsPerOp).Round(time.Microsecond), metricLine(r))
	}

	now := time.Now().UTC()
	doc := benchfmt.NewFile(*repoURL, benchfmt.Run{
		Commit: benchfmt.Commit{
			Author:    benchfmt.Author{Name: "stzload"},
			Committer: benchfmt.Author{Name: "stzload"},
			ID:        commitID(*commit),
			Message:   "soak " + cell.Name,
			Timestamp: now.Format(time.RFC3339),
		},
		Date:    now.UnixMilli(),
		Tool:    "go",
		Benches: bench.SuiteEntries(results, *runs),
	})
	if err := doc.Validate(); err != nil {
		return fmt.Errorf("emitted document is not schema-valid: %w", err)
	}

	path := *out
	if path == "" {
		path = filepath.Join("bench", fmt.Sprintf("BENCH_%s_soak.json", now.Format("2006-01-02")))
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := benchfmt.MarshalIndent(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s (%d benches)", path, len(doc.Latest()))
	return nil
}

// metricLine renders the tail quantiles of one result for the log.
func metricLine(r bench.CellResult) string {
	var parts []string
	for _, m := range r.Metrics {
		switch m.Unit {
		case "p99_ns", "p999_ns", "max_ns":
			parts = append(parts, fmt.Sprintf("%s %s",
				strings.TrimSuffix(m.Unit, "_ns"),
				time.Duration(m.Value).Round(time.Microsecond)))
		case "ok-%":
			parts = append(parts, fmt.Sprintf("ok %.1f%%", m.Value))
		case "qps":
			parts = append(parts, fmt.Sprintf("%.0f qps", m.Value))
		}
	}
	return strings.Join(parts, "  ")
}

// commitID resolves the commit recorded in the document: the -commit
// flag, then git HEAD, then "unknown".
func commitID(flagVal string) string {
	if flagVal != "" {
		return flagVal
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	if id := strings.TrimSpace(string(out)); id != "" {
		return id
	}
	return "unknown"
}
