// Package benchfmt defines the benchmark-series interchange formats shared
// by cmd/benchdiff and cmd/stzload: the flat entry list that
// benchmark-action/github-action-benchmark extracts from `go test -bench`
// output (tool: "go"), and the full window.BENCHMARK_DATA document, which
// wraps one run's entries with its commit provenance so runs stay
// diffable across history.
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Entry is one benchmark series point in the github-action-benchmark
// go-tool extracted format. The primary (ns/op) entry of a benchmark run
// with -benchmem additionally carries the memory metrics, so memory
// baselines travel in the same JSON file the timing gate already caches.
type Entry struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Extra string  `json:"extra,omitempty"`
	// MemBytesPerOp / AllocsPerOp mirror the B/op and allocs/op columns of
	// the same benchmark line; nil when the run lacked -benchmem.
	MemBytesPerOp *float64 `json:"mem_bytes_per_op,omitempty"`
	AllocsPerOp   *float64 `json:"allocs_per_op,omitempty"`
}

// ParseGoBench extracts entries from `go test -bench` text output. Each
// benchmark line yields one entry per (value, unit) pair after the
// iteration count: the ns/op metric keeps the bare benchmark name, and
// secondary metrics (B/op, allocs/op, custom units) are suffixed with
// " - <unit>", mirroring the series names github-action-benchmark builds.
// Repeated lines of one benchmark (`go test -count N`) are merged to their
// minimum, the standard low-noise estimate for gating.
func ParseGoBench(r io.Reader) ([]Entry, error) {
	var out []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// name, iterations, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		name := fields[0]
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		extra := fmt.Sprintf("%d times", iters)
		primary := -1 // index in out of this line's ns/op entry
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			unit := fields[i+1]
			entryName := name
			if unit != "ns/op" {
				entryName = name + " - " + unit
			}
			out = append(out, Entry{Name: entryName, Value: v, Unit: unit, Extra: extra})
			switch unit {
			case "ns/op":
				primary = len(out) - 1
			case "B/op":
				if primary >= 0 {
					b := v
					out[primary].MemBytesPerOp = &b
				}
			case "allocs/op":
				if primary >= 0 {
					a := v
					out[primary].AllocsPerOp = &a
				}
			}
		}
	}
	return MergeMin(out), sc.Err()
}

// MergeMin collapses repeated entries of the same name (as produced by
// `go test -count N` or by min-of-N suite runs) to their minimum,
// preserving first-seen order.
func MergeMin(entries []Entry) []Entry {
	idx := make(map[string]int, len(entries))
	reps := make(map[string]int, len(entries))
	var out []Entry
	for _, e := range entries {
		i, ok := idx[e.Name]
		if !ok {
			idx[e.Name] = len(out)
			reps[e.Name] = 1
			out = append(out, e)
			continue
		}
		reps[e.Name]++
		if e.Value < out[i].Value {
			out[i].Value = e.Value
		}
		out[i].MemBytesPerOp = minPtr(out[i].MemBytesPerOp, e.MemBytesPerOp)
		out[i].AllocsPerOp = minPtr(out[i].AllocsPerOp, e.AllocsPerOp)
	}
	for name, i := range idx {
		if n := reps[name]; n > 1 {
			out[i].Extra = fmt.Sprintf("min of %d runs", n)
		}
	}
	return out
}

// minPtr returns the smaller of two optional metrics (nil = absent).
func minPtr(a, b *float64) *float64 {
	if a == nil {
		return b
	}
	if b == nil || *a <= *b {
		return a
	}
	return b
}
