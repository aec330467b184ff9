package bench

import (
	"os"
	"strings"
	"testing"

	"stz/internal/benchfmt"
)

// TestLoadCellSeriesCompat runs each load-cell row once on a small grid and
// checks that it emits exactly the series — entry names and units, in order
// — the committed baselines carry for that workload, modulo the dataset
// segment of the name. A renamed or dropped series would surface in CI only
// as a new-cell / cell-removed row that no gate fails on.
func TestLoadCellSeriesCompat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every service-tier cell end to end")
	}
	const baseDataset, dataset = "Nyx-48x40x44-s1001", "Nyx-16x12x12-s1001"
	for workload, baseline := range map[string]string{
		WorkloadCluster:  "cluster",
		WorkloadChaos:    "chaos",
		WorkloadRecovery: "chaos",
		WorkloadSoak:     "soak",
	} {
		t.Run(workload, func(t *testing.T) {
			f, err := os.Open("../../bench/BENCH_2026-08-08_" + baseline + ".json")
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			committed, err := benchfmt.ReadSeries(f)
			if err != nil {
				t.Fatal(err)
			}
			c := MakeCell(Cell{
				Dataset: dataset, Codec: "sz3", EB: 1e-3,
				Workers: 2, Workload: workload, Chunks: 4, Box: [3]int{8, 8, 8},
				Rate: 200, Seconds: 1, Clients: 8,
			})
			var want []string
			for _, e := range committed {
				name := strings.Replace(e.Name, baseDataset, dataset, 1)
				if name == c.Name || strings.HasPrefix(name, c.Name+" - ") || strings.HasPrefix(name, c.Name+"/") {
					want = append(want, name+" ["+e.Unit+"]")
				}
			}
			if len(want) == 0 {
				t.Fatalf("baseline %s has no %s series", baseline, workload)
			}
			ress, err := RunCell(c, 1)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range SuiteEntries(ress, 1) {
				got = append(got, e.Name+" ["+e.Unit+"]")
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("emitted series\n%s\nwant the committed\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}

// TestSoakCellEndToEnd runs a short soak cell against the in-process
// server and checks the result shape: the cell aggregate plus one
// sub-result per endpoint, each carrying the full quantile set, with a
// healthy success rate.
func TestSoakCellEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("open-loop soak needs wall-clock time")
	}
	c := MakeCell(Cell{
		Dataset: "Nyx-24x18x20-s1001", Codec: "sz3", EB: 1e-3,
		Workers: 2, Workload: WorkloadSoak, Chunks: 3, Box: [3]int{8, 8, 8},
		Rate: 300, Seconds: 1, Clients: 4,
	})
	ress, err := RunCell(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ress) != 1+5 {
		t.Fatalf("%d results, want cell + the 5 endpoints of the soak mix", len(ress))
	}
	if ress[0].Name != c.Name {
		t.Fatalf("first result %q, want the cell aggregate %q", ress[0].Name, c.Name)
	}
	for i, r := range ress {
		if i > 0 && !strings.HasPrefix(r.Name, c.Name+"/") {
			t.Fatalf("sub-result %q not under the cell name", r.Name)
		}
		if !(r.NsPerOp > 0) {
			t.Fatalf("%s: ns/op (p50) = %g", r.Name, r.NsPerOp)
		}
		u := map[string]float64{}
		for _, m := range r.Metrics {
			u[m.Unit] = m.Value
		}
		for _, unit := range []string{"p99_ns", "p999_ns", "max_ns"} {
			if !(u[unit] > 0) {
				t.Fatalf("%s: missing %s (metrics %+v)", r.Name, unit, r.Metrics)
			}
		}
		if u["p999_ns"] < u["p99_ns"] || u["max_ns"] < u["p999_ns"] {
			t.Fatalf("%s: quantiles not ordered: %+v", r.Name, r.Metrics)
		}
	}
	u := map[string]float64{}
	for _, m := range ress[0].Metrics {
		u[m.Unit] = m.Value
	}
	if u["ok-%"] < 99 {
		t.Fatalf("soak ok-%% = %g — mixed traffic failing against a healthy server", u["ok-%"])
	}
	if !(u["qps"] > 0) || !(u["p999/p50"] >= 1) {
		t.Fatalf("aggregate metrics %+v", ress[0].Metrics)
	}
}
