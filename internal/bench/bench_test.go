package bench

import (
	"errors"
	"math"
	"testing"

	"stz/internal/datasets"
)

func TestCodecsList(t *testing.T) {
	cs := Codecs[float32]()
	if len(cs) != 5 {
		t.Fatalf("want 5 codecs, got %d", len(cs))
	}
	want := []string{"Ours", "SZ3", "SPERR", "ZFP", "MGARDX"}
	for i, w := range want {
		if cs[i].Name != w {
			t.Fatalf("codec %d is %s want %s", i, cs[i].Name, w)
		}
	}
	// Table 1 feature matrix: only STZ has both streaming features.
	for _, c := range cs {
		both := c.Progressive && c.RandomAccess
		if c.Name == "Ours" && !both {
			t.Fatal("STZ must support both streaming features")
		}
		if c.Name != "Ours" && both {
			t.Fatalf("%s should not support both streaming features", c.Name)
		}
	}
}

func TestRunAllCodecsOnSmallNyx(t *testing.T) {
	g := datasets.Nyx(24, 24, 24, 1)
	for _, c := range Codecs[float32]() {
		r, err := Run(c, g, 1e-3, 1, true)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if r.CR <= 1 {
			t.Errorf("%s: no compression (CR %.2f)", c.Name, r.CR)
		}
		if r.PSNR < 20 {
			t.Errorf("%s: implausible PSNR %.1f", c.Name, r.PSNR)
		}
		if r.SSIM <= 0 || r.SSIM > 1+1e-9 {
			t.Errorf("%s: SSIM out of range %.3f", c.Name, r.SSIM)
		}
		if r.CompressTime <= 0 || r.DecompressTime <= 0 {
			t.Errorf("%s: timings not recorded", c.Name)
		}
	}
}

func TestRunParallelWorks(t *testing.T) {
	g := datasets.Miranda(24, 24, 24, 2)
	for _, c := range Codecs[float32]() {
		if _, err := Run(c, g, 1e-3, 4, false); err != nil {
			t.Fatalf("%s parallel: %v", c.Name, err)
		}
	}
}

func TestRunFloat64(t *testing.T) {
	g := datasets.WarpX(64, 12, 12, 3)
	for _, c := range Codecs[float64]() {
		r, err := Run(c, g, 1e-3, 1, false)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if r.CR <= 1 {
			t.Errorf("%s: CR %.2f", c.Name, r.CR)
		}
	}
}

// TestEBForTargetCR: a reachable target comes back within 5 %, and one past
// float32's 32× ceiling comes back as ErrTargetMissed with the closest row.
func TestEBForTargetCR(t *testing.T) {
	g := datasets.Miranda(32, 32, 32, 4)
	c := STZ[float32]()
	_, r, err := EBForTargetCR(c, g, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.CR/10-1) > 0.05 {
		t.Fatalf("matched CR %.2f more than 5 %% from target 10", r.CR)
	}
	_, r, err = EBForTargetCR(c, g, 50, 1)
	if !errors.Is(err, ErrTargetMissed) {
		t.Fatalf("target 50: err %v, want ErrTargetMissed", err)
	}
	if !(r.CR > 1 && r.CR < 32) {
		t.Fatalf("target 50: closest row CR %.1f, want one under the 32× ceiling", r.CR)
	}
}

func TestRateDistortionOrderingSTZBeatsZFP(t *testing.T) {
	// Fig. 11's central claim at the codec level: at the same relative
	// bound, STZ compresses (much) better than block-wise ZFP.
	g := datasets.Nyx(32, 32, 32, 5)
	stz, err := Run(STZ[float32](), g, 1e-3, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	var zfpRes Result
	for _, c := range Codecs[float32]() {
		if c.Name == "ZFP" {
			zfpRes, err = Run(c, g, 1e-3, 1, false)
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if stz.CR <= zfpRes.CR {
		t.Fatalf("STZ CR %.1f should beat ZFP CR %.1f at the same bound", stz.CR, zfpRes.CR)
	}
}
