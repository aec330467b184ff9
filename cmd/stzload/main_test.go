package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stz/internal/benchfmt"
)

// TestSoakCellEndToEnd runs a 1.5 s soak against the in-process server
// through the flag parser and the document writer. The schedule holds
// exactly duration × rate requests (no rounding to whole seconds); the
// document carries exactly the pinned series, in order; every series has
// ordered quantiles; and mixed traffic against a healthy server succeeds.
func TestSoakCellEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("open-loop soak needs wall-clock time")
	}
	out := filepath.Join(t.TempDir(), "soak.json")
	o, err := parse([]string{"-dataset", "Nyx-24x18x20-s1001", "-chunks", "3", "-box", "8x8x8",
		"-rate", "300", "-duration", "1500ms", "-clients", "4", "-commit", "test", "-out", out})
	if err != nil {
		t.Fatal(err)
	}
	res, err := soak(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.runs) != 1 {
		t.Fatalf("%d runs, want 1", len(res.runs))
	}
	if n := res.runs[0].Total.Count; n != 450 {
		t.Fatalf("-duration 1500ms at 300 req/s scheduled %d requests, want 450", n)
	}
	if err := write(o, res); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	entries, err := benchfmt.ReadSeries(f)
	if err != nil {
		t.Fatal(err)
	}

	const cell = "StzSuite/Nyx-24x18x20-s1001/sz3/eb0.001/w2/soak"
	want := []string{
		cell + " [ns/op]",
		cell + " - p99_ns [p99_ns]",
		cell + " - p999_ns [p999_ns]",
		cell + " - max_ns [max_ns]",
		cell + " - p999/p50 [p999/p50]",
		cell + " - qps [qps]",
		cell + " - ok-% [ok-%]",
		cell + " - pool-hit-% [pool-hit-%]",
	}
	for _, op := range []string{"box", "section", "decomp", "compress", "put"} {
		want = append(want,
			cell+"/"+op+" [ns/op]",
			cell+"/"+op+" - p99_ns [p99_ns]",
			cell+"/"+op+" - p999_ns [p999_ns]",
			cell+"/"+op+" - max_ns [max_ns]",
			cell+"/"+op+" - p999/p50 [p999/p50]")
	}
	var got []string
	vals := map[string]float64{}
	for _, e := range entries {
		got = append(got, e.Name+" ["+e.Unit+"]")
		vals[e.Name] = e.Value
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("emitted series\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}

	for _, series := range []string{cell, cell + "/box", cell + "/section", cell + "/decomp", cell + "/compress", cell + "/put"} {
		p50, p99, p999, mx := vals[series], vals[series+" - p99_ns"], vals[series+" - p999_ns"], vals[series+" - max_ns"]
		if !(p50 > 0) || p99 < p50 || p999 < p99 || mx < p999 {
			t.Fatalf("%s: quantiles not ordered: p50 %g p99 %g p999 %g max %g", series, p50, p99, p999, mx)
		}
	}
	if ok := vals[cell+" - ok-%"]; ok < 99 {
		t.Fatalf("soak ok-%% = %g — mixed traffic failing against a healthy server", ok)
	}
	if !(vals[cell+" - qps"] > 0) || !(vals[cell+" - p999/p50"] >= 1) {
		t.Fatalf("aggregate qps %g, p999/p50 %g", vals[cell+" - qps"], vals[cell+" - p999/p50"])
	}
}
