// Package viz renders grid slices to grayscale or pseudo-colored PNG
// images. The paper's Figures 3, 12 and 13 are visual comparisons of
// decompressed fields; this package produces the equivalent raster
// artifacts so reconstructions can be inspected side by side.
package viz

import (
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"sort"

	"stz/internal/grid"
)

// Colormap maps a normalized value in [0, 1] to a color.
type Colormap func(t float64) color.RGBA

// Gray is the identity grayscale map.
func Gray(t float64) color.RGBA {
	v := uint8(math.Round(clamp01(t) * 255))
	return color.RGBA{v, v, v, 255}
}

// CoolWarm approximates ParaView's "Cool to Warm" diverging map
// (blue → white → red), used for the Magnetic Reconnection renders.
func CoolWarm(t float64) color.RGBA {
	t = clamp01(t)
	// Piecewise linear through (0.23,0.30,0.75) → (0.87,0.87,0.87) →
	// (0.71,0.016,0.15).
	var r, g, b float64
	if t < 0.5 {
		u := t * 2
		r = lerp(0.23, 0.87, u)
		g = lerp(0.30, 0.87, u)
		b = lerp(0.75, 0.87, u)
	} else {
		u := (t - 0.5) * 2
		r = lerp(0.87, 0.71, u)
		g = lerp(0.87, 0.016, u)
		b = lerp(0.87, 0.15, u)
	}
	return color.RGBA{uint8(r * 255), uint8(g * 255), uint8(b * 255), 255}
}

// Rainbow approximates ParaView's "Rainbow Blended White" (white → blue →
// cyan → green → yellow → red), used for the Nyx renders.
func Rainbow(t float64) color.RGBA {
	t = clamp01(t)
	stops := [][3]float64{
		{1, 1, 1}, {0, 0, 1}, {0, 1, 1}, {0, 1, 0}, {1, 1, 0}, {1, 0, 0},
	}
	pos := t * float64(len(stops)-1)
	i := int(pos)
	if i >= len(stops)-1 {
		i = len(stops) - 2
	}
	u := pos - float64(i)
	r := lerp(stops[i][0], stops[i+1][0], u)
	g := lerp(stops[i][1], stops[i+1][1], u)
	b := lerp(stops[i][2], stops[i+1][2], u)
	return color.RGBA{uint8(r * 255), uint8(g * 255), uint8(b * 255), 255}
}

func clamp01(t float64) float64 {
	if t < 0 || math.IsNaN(t) {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

func lerp(a, b, t float64) float64 { return a + (b-a)*t }

// Options controls rendering.
type Options struct {
	// Map is the colormap; nil selects Gray.
	Map Colormap
	// Lo, Hi are the normalization bounds; equal values select robust
	// percentile bounds from the slice data (2nd–98th percentile).
	Lo, Hi float64
	// Log applies log10(1+|v−Lo|) scaling before normalization — useful
	// for heavy-tailed fields such as cosmology densities.
	Log bool
}

// SliceZ renders the z-plane of g at index z.
func SliceZ[T grid.Float](g *grid.Grid[T], z int, o Options) (*image.RGBA, error) {
	if z < 0 || z >= g.Nz {
		return nil, fmt.Errorf("viz: slice %d out of range [0,%d)", z, g.Nz)
	}
	vals := make([]float64, g.Ny*g.Nx)
	base := z * g.Ny * g.Nx
	for i := range vals {
		vals[i] = float64(g.Data[base+i])
	}
	return render(vals, g.Ny, g.Nx, o)
}

func render(vals []float64, ny, nx int, o Options) (*image.RGBA, error) {
	if ny == 0 || nx == 0 {
		return nil, fmt.Errorf("viz: empty slice")
	}
	cmap := o.Map
	if cmap == nil {
		cmap = Gray
	}
	lo, hi := o.Lo, o.Hi
	if lo == hi {
		lo, hi = robustBounds(vals)
	}
	scale := func(v float64) float64 {
		if o.Log {
			v = math.Log10(1 + math.Abs(v-lo))
			top := math.Log10(1 + math.Abs(hi-lo))
			if top == 0 {
				return 0
			}
			return v / top
		}
		if hi == lo {
			return 0
		}
		return (v - lo) / (hi - lo)
	}
	img := image.NewRGBA(image.Rect(0, 0, nx, ny))
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			img.SetRGBA(x, y, cmap(scale(vals[y*nx+x])))
		}
	}
	return img, nil
}

// robustBounds returns the 2nd and 98th percentile of vals.
func robustBounds(vals []float64) (float64, float64) {
	s := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			s = append(s, v)
		}
	}
	if len(s) == 0 {
		return 0, 1
	}
	sort.Float64s(s)
	lo := s[len(s)*2/100]
	hi := s[len(s)*98/100]
	if hi == lo {
		lo, hi = s[0], s[len(s)-1]
	}
	return lo, hi
}

// WritePNG encodes img to w.
func WritePNG(w io.Writer, img image.Image) error {
	return png.Encode(w, img)
}
