package main

import (
	"os"
	"testing"
)

// TestExperimentsTiny runs every -exp id at -scale tiny: the experiments
// assert their own invariants (error bounds, round trips), so an error from
// any of them is a regression in a code path behind a paper artifact.
func TestExperimentsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every paper experiment")
	}
	*flagScale, *flagWorkers = "tiny", 4
	// The tables go to stdout; keep them out of the test log.
	stdout := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = stdout
		devnull.Close()
	}()
	for _, e := range experiments {
		if err := e.run(); err != nil {
			t.Errorf("-exp %s: %v", e.id, err)
		}
	}
}
