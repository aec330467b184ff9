// Command benchdiff turns `go test -bench` output into the
// github-action-benchmark go-tool JSON series format and gates CI on
// benchmark regressions between two such files.
//
//	go test -run '^$' -bench . -benchtime 1x ./... | benchdiff convert -out bench.json
//	benchdiff compare -old baseline.json -new bench.json -threshold 1.30
//	benchdiff compare -old soak.json -new limited.json \
//	  -metric p99_ns:1.5 -metric ok-%:1.02:higher
//	benchdiff validate -in soak.json
//
// convert emits one entry per measured metric (ns/op, B/op, allocs/op and
// any custom metrics), named like the window.BENCHMARK_DATA series that
// benchmark-action/github-action-benchmark (tool: "go") builds: the plain
// benchmark name carries ns/op, and secondary metrics get a " - <unit>"
// suffix. compare accepts either that flat entry array or a full
// window.BENCHMARK_DATA document (what cmd/stzload writes), gating on the
// document's newest run. It exits non-zero when any ns/op entry regresses
// beyond the threshold ratio against the baseline, when allocs/op
// regresses beyond -alloc-threshold, or when a -metric gated custom unit
// (compression ratio, PSNR, …) degrades beyond its own threshold in its
// own direction; benchmarks present in only one file are reported but
// never fail the gate. validate asserts a BENCH document is schema-valid.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "validate":
		err = cmdValidate(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: benchdiff <convert|compare|validate> [flags]
run "benchdiff <command> -h" for command flags`)
}

func readInput(path string) (io.ReadCloser, error) {
	if path == "" || path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

func writeJSON(path string, v any) error {
	var w io.Writer = os.Stdout
	if path != "" && path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
