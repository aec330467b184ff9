package core

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
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
