package codec_test

import (
	"math"
	"testing"

	"stz/internal/codec"
	"stz/internal/datasets"
	"stz/internal/quant"
)

// TestRadiusLimit: Encode refuses a radius the quantizing codecs' readers
// would refuse (codes are uint16) and round-trips the largest one they
// accept.
func TestRadiusLimit(t *testing.T) {
	g := datasets.Nyx(16, 16, 16, 5)
	for _, name := range []string{"sz3", "stz"} {
		cfg := codec.Config{EB: 1e-3, Mode: codec.ModeRel, Radius: quant.DefaultRadius + 1}
		if _, err := codec.Encode(name, g, cfg); err == nil {
			t.Fatalf("%s: radius %d accepted", name, cfg.Radius)
		}
		cfg.Radius = quant.DefaultRadius
		enc, err := codec.Encode(name, g, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rec, err := codec.Decode[float32](enc, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mn, mx := g.Range()
		eb := quant.AbsoluteBound(cfg.EB, float64(mn), float64(mx))
		for i, v := range g.Data {
			if d := math.Abs(float64(v) - float64(rec.Data[i])); d > eb {
				t.Fatalf("%s: point %d off by %g > %g", name, i, d, eb)
			}
		}
	}
}
