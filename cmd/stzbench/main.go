// Command stzbench regenerates every table and figure of the paper's
// evaluation (§4) on the synthetic dataset stand-ins:
//
//	table1  — feature matrix (Table 1)
//	table2  — dataset inventory (Table 2)
//	fig3    — matched-CR quality: naive partition vs SZ3 vs STZ on Nyx
//	fig5    — ablation rate-distortion ladder on Nyx (Fig. 5)
//	fig10   — ROI extraction on Nyx halos (Fig. 10)
//	fig11   — rate-distortion of 5 compressors × 4 datasets (Fig. 11)
//	fig12   — matched-CR SSIM/PSNR on WarpX and Magnetic Reconnection
//	table3  — compression/decompression times, serial and 8-way parallel
//	table4  — random-access decompression time breakdown on Miranda
//	fig13   — progressive decompression on Miranda (Fig. 13)
//	ebratio — the adaptive error-bound ratio calibration (§3.1, Opt. 5)
//	codecs  — unified registry capability matrix + chunk-parallel sweep
//
// The rungs of the fig3 and fig5 ablation ladder that are not STZ
// configurations — Partition and the two SZ3-residual rungs — live in
// internal/bench (Fig5Ladder), pinned there by TestAblationLadderGolden.
//
// Usage: stzbench -exp all|table1|...|fig13|ebratio|codecs [-scale tiny|bench] [-workers 8]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

var (
	flagExp     = flag.String("exp", "all", "experiment id (all, table1..table4, fig3, fig5, fig10..fig13)")
	flagScale   = flag.String("scale", "bench", "dataset scale: tiny (smoke test) or bench (default harness size)")
	flagWorkers = flag.Int("workers", 8, "parallel workers for the OMP-equivalent modes")
)

// experiments lists every experiment in paper order.
var experiments = []struct {
	id  string
	run func() error
}{
	{"table1", expTable1},
	{"table2", expTable2},
	{"fig3", expFig3},
	{"fig5", expFig5},
	{"fig10", expFig10},
	{"fig11", expFig11},
	{"fig12", expFig12},
	{"table3", expTable3},
	{"table4", expTable4},
	{"fig13", expFig13},
	// Design-choice ablations beyond the paper's figures.
	{"ebratio", expEBRatio},
	{"codecs", expCodecs},
}

func main() {
	flag.Parse()
	want := strings.ToLower(*flagExp)
	var ids []string
	ran := false
	for _, e := range experiments {
		ids = append(ids, e.id)
		if want != "all" && want != e.id {
			continue
		}
		ran = true
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "stzbench: %s: %v\n", e.id, err)
			os.Exit(1)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "stzbench: unknown experiment %q (want one of %s)\n",
			want, strings.Join(ids, ", "))
		os.Exit(2)
	}
}

// header prints a banner for one experiment.
func header(id, title string) {
	fmt.Printf("\n================================================================\n")
	fmt.Printf("%s — %s\n", strings.ToUpper(id), title)
	fmt.Printf("================================================================\n")
}

// row prints fixed-width columns.
func row(cols ...string) {
	for i, c := range cols {
		if i == 0 {
			fmt.Printf("%-22s", c)
		} else {
			fmt.Printf("%14s", c)
		}
	}
	fmt.Println()
}
