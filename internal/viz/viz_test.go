package viz

import (
	"bytes"
	"image/png"
	"math"
	"testing"

	"stz/internal/grid"
)

func testSlice() *grid.Grid[float32] {
	g := grid.New[float32](4, 16, 16)
	for z := 0; z < 4; z++ {
		for y := 0; y < 16; y++ {
			for x := 0; x < 16; x++ {
				g.Set(z, y, x, float32(math.Sin(float64(x)/3)*math.Cos(float64(y)/4)+float64(z)))
			}
		}
	}
	return g
}

func TestSliceZDims(t *testing.T) {
	g := testSlice()
	img, err := SliceZ(g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := img.Bounds()
	if b.Dx() != 16 || b.Dy() != 16 {
		t.Fatalf("image %dx%d", b.Dx(), b.Dy())
	}
}

func TestSliceZOutOfRange(t *testing.T) {
	g := testSlice()
	if _, err := SliceZ(g, 4, Options{}); err == nil {
		t.Fatal("out-of-range slice accepted")
	}
	if _, err := SliceZ(g, -1, Options{}); err == nil {
		t.Fatal("negative slice accepted")
	}
}

func TestGrayMap(t *testing.T) {
	if c := Gray(0); c.R != 0 || c.G != 0 || c.B != 0 {
		t.Fatalf("Gray(0)=%v", c)
	}
	if c := Gray(1); c.R != 255 {
		t.Fatalf("Gray(1)=%v", c)
	}
	if c := Gray(math.NaN()); c.R != 0 {
		t.Fatalf("Gray(NaN)=%v", c)
	}
	if c := Gray(2); c.R != 255 {
		t.Fatalf("Gray clamping failed: %v", c)
	}
}

func TestColormapsCover(t *testing.T) {
	for _, cm := range []Colormap{Gray, CoolWarm, Rainbow} {
		for _, v := range []float64{0, 0.25, 0.5, 0.75, 1} {
			c := cm(v)
			if c.A != 255 {
				t.Fatalf("alpha %d at %g", c.A, v)
			}
		}
	}
	// CoolWarm midpoint must be near-neutral (white-ish).
	mid := CoolWarm(0.5)
	if mid.R < 200 || mid.G < 200 || mid.B < 200 {
		t.Fatalf("CoolWarm(0.5)=%v not neutral", mid)
	}
}

func TestFixedBounds(t *testing.T) {
	g := grid.New[float64](1, 1, 3)
	copy(g.Data, []float64{0, 5, 10})
	img, err := SliceZ(g, 0, Options{Lo: 0, Hi: 10})
	if err != nil {
		t.Fatal(err)
	}
	if c := img.RGBAAt(0, 0); c.R != 0 {
		t.Fatalf("low pixel %v", c)
	}
	if c := img.RGBAAt(2, 0); c.R != 255 {
		t.Fatalf("high pixel %v", c)
	}
	mid := img.RGBAAt(1, 0)
	if mid.R < 100 || mid.R > 155 {
		t.Fatalf("mid pixel %v", mid)
	}
}

func TestLogScaling(t *testing.T) {
	g := grid.New[float64](1, 1, 4)
	copy(g.Data, []float64{1, 10, 100, 1000})
	img, err := SliceZ(g, 0, Options{Lo: 1, Hi: 1000, Log: true})
	if err != nil {
		t.Fatal(err)
	}
	// Log scaling should spread low values: pixel(1) brighter than linear.
	logMid := img.RGBAAt(1, 0).R
	linImg, _ := SliceZ(g, 0, Options{Lo: 1, Hi: 1000})
	linMid := linImg.RGBAAt(1, 0).R
	if logMid <= linMid {
		t.Fatalf("log (%d) should brighten small values vs linear (%d)", logMid, linMid)
	}
}

func TestRobustBounds(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	vals[99] = 1e12 // outlier must not dominate
	lo, hi := robustBounds(vals)
	if lo > 5 || hi > 1e3 {
		t.Fatalf("bounds [%g, %g] not robust", lo, hi)
	}
	if l, h := robustBounds([]float64{math.NaN()}); l != 0 || h != 1 {
		t.Fatalf("all-NaN bounds [%g, %g]", l, h)
	}
}

func TestWritePNGRoundTrip(t *testing.T) {
	g := testSlice()
	img, err := SliceZ(g, 0, Options{Map: Rainbow})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePNG(&buf, img); err != nil {
		t.Fatal(err)
	}
	dec, err := png.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Bounds().Dx() != 16 {
		t.Fatal("decoded PNG dims wrong")
	}
}
