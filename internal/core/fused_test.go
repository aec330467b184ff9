package core

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/quant"
)

// TestNoFusedArithmetic: no function of core, quant, sz3, interp, mgard or
// sperr compiles to a fused multiply-add on any back end that fuses. The Go
// spec lets a compiler fuse x*y + z unless an explicit conversion rounds the
// product; amd64 never does, arm64, ppc64le, s390x and riscv64 do, and a
// fused dequantise, prediction or lifting step rounds differently from the
// encoder that wrote the stream. The test cross-compiles this package with
// -S for the six packages and for codec, where their generic code is also
// instantiated, and names every function that holds a fused instruction.
// Generic code is listed under the package that declares it; a fused site
// anywhere else (codec's own code) is logged, not failed.
func TestNoFusedArithmetic(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	gated := []string{"core", "quant", "sz3", "interp", "mgard", "sperr"}
	args := []string{"build"}
	for _, p := range append(gated, "codec") {
		args = append(args, "-gcflags=stz/internal/"+p+"=-S")
	}
	args = append(args, "stz/internal/core")
	fn := regexp.MustCompile(`^(\S+) STEXT `)
	fused := regexp.MustCompile(`\t(FN?M(ADD|SUB)[SD]?(CC)?)\t`)
	inGate := regexp.MustCompile(`^stz/internal/(` + strings.Join(gated, "|") + `)\.`)
	for _, arch := range []string{"arm64", "ppc64le", "s390x", "riscv64"} {
		cmd := exec.Command(goTool, args...)
		cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0")
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s: go %s: %v\n%s", arch, strings.Join(args, " "), err, out[max(0, len(out)-4096):])
		}
		seen := map[string]bool{}
		var bad, outside []string
		cur := ""
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if m := fn.FindStringSubmatch(line); m != nil {
				cur = m[1]
				if m := inGate.FindStringSubmatch(cur); m != nil {
					seen[m[1]] = true
				}
				continue
			}
			if m := fused.FindStringSubmatch(line); m != nil {
				site := cur + ": " + m[1]
				if inGate.MatchString(cur) {
					bad = append(bad, site)
				} else {
					outside = append(outside, site)
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("%s: reading the -S listing: %v", arch, err)
		}
		for _, p := range gated {
			if !seen[p] {
				t.Fatalf("%s: the -S listing has no function of %s; it cannot show a fused site", arch, p)
			}
		}
		if len(bad) > 0 {
			t.Errorf("%s: %d fused multiply-adds (round the product with an explicit conversion):\n\t%s",
				arch, len(bad), strings.Join(bad, "\n\t"))
		}
		if len(outside) > 0 {
			t.Logf("%s: %d fused multiply-adds outside %v:\n\t%s", arch, len(outside), gated, strings.Join(outside, "\n\t"))
		}
	}
}

// TestFusedDequantiseChangesDecodes is the premise of TestNoFusedArithmetic:
// a fused dequantise decodes an archive to other values. It decodes WarpX
// 64³ float64 (seed 5) at a relative bound of 1e-4, then decodes it again
// level by level from the decode's own level-1 base, with PredictClasses
// and each level's class codes: once dequantising as the decoder does,
// p + float64(bin·k), which must give the decode bit for bit, and once as a
// back end that fuses would, math.FMA(bin, k, p), which must give some
// points other values. A fused level predicts the next from its own values,
// so its differences carry into the finest level.
func TestFusedDequantiseChangesDecodes(t *testing.T) {
	g := datasets.WarpX(64, 64, 64, 5)
	mn, mx := g.Range()
	enc, err := Compress(g, DefaultConfig(quant.AbsoluteBound(1e-4, mn, mx)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader[float64](enc)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := r.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	redecode := func(dequantise func(bin, k, p float64) float64) *grid.Grid[float64] {
		chain := r.chainDims()
		fine := dec.ExtractStride(grid.Offset3{}, 1<<(len(chain)-1))
		for p := 0; p < len(chain)-1; p++ {
			fd := chain[len(chain)-2-p]
			pl := r.planLevel(p, fd, []view[float64]{{b: grid.Box{Z1: fd[0], Y1: fd[1], X1: fd[2]}}})
			classes := PredictClasses(fine, fd[0], fd[1], fd[2], r.hdr.Predictor)
			bin, radius := 2*pl.q.EB, pl.q.Radius
			for c := 1; c < 8; c++ {
				if pl.decode(r, c); pl.errs[c] != nil {
					t.Fatal(pl.errs[c])
				}
				for i, code := range pl.dcs[c].codes[:len(classes[c].Data)] {
					if code == 0 {
						classes[c].Data[i] = pl.dcs[c].esc[i]
					} else {
						classes[c].Data[i] = dequantise(bin, float64(int32(code)-radius), classes[c].Data[i])
					}
				}
			}
			pl.release()
			fine = grid.AssembleStride2(classes, fd[0], fd[1], fd[2])
		}
		return fine
	}
	plain := redecode(func(bin, k, p float64) float64 { return p + float64(bin*k) })
	for i, v := range plain.Data {
		if math.Float64bits(v) != math.Float64bits(dec.Data[i]) {
			t.Fatalf("point %d: unfused redecode %v, Decompress %v", i, v, dec.Data[i])
		}
	}
	fused, differ := redecode(math.FMA), 0
	for i, v := range fused.Data {
		if v != dec.Data[i] {
			differ++
		}
	}
	t.Logf("fused dequantise: %d of %d points (%.2f %%) decode to other values", differ, len(dec.Data), 100*float64(differ)/float64(len(dec.Data)))
	if differ == 0 {
		t.Fatal("a fused dequantise decodes every point as Decompress does: the no-fusion gate guards nothing here")
	}
}
