package sz3

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/quant"
)

// spikeField64 is a smooth f64 field with a 1e12 spike every 17th point, so
// its archives carry escapes.
func spikeField64(nz, ny, nx int, seed int64) *grid.Grid[float64] {
	g := smoothField[float64](nz, ny, nx, seed)
	for i := 0; i < g.Len(); i += 17 {
		g.Data[i] = 1e12 * math.Copysign(1, g.Data[i])
	}
	return g
}

// relBound resolves a value-range-relative bound on g.
func relBound[T grid.Float](g *grid.Grid[T], rel float64) float64 {
	lo, hi := g.Range()
	return quant.AbsoluteBound(rel, float64(lo), float64(hi))
}

// TestPinnedEncoderArchives pins the encoder's output bytes. The hashes were
// taken from the per-point encoder this package shipped before the line
// kernels (parent of the PR that introduced them), so a kernel that changes
// one code, one escape or the summation order of one prediction fails here
// and not only in the repository benchmark's archive-drift note. (The
// integration corpora pin the decoder: they hold archives, not inputs.)
func TestPinnedEncoderArchives(t *testing.T) {
	nyxSmall := datasets.Nyx(33, 31, 38, 5)
	nyxSlab := datasets.Nyx(8, 128, 128, 1001)
	spikes := spikeField64(17, 9, 13, 31)
	hash := func(enc []byte, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(enc)
		return hex.EncodeToString(sum[:8])
	}
	for _, c := range []struct{ name, want, got string }{
		{name: "nyx-33x31x38/serial", want: "0f67b4e4bbaf9052",
			got: hash(Compress(nyxSmall, Options{EB: relBound(nyxSmall, 1e-3)}))},
		{name: "nyx-33x31x38/chunks16", want: "18329a756b829328",
			got: hash(Compress(nyxSmall, Options{EB: relBound(nyxSmall, 1e-3), Workers: 4, Chunks: 16}))},
		{name: "nyx-33x31x38/serial-radius8", want: "f06d4931106cf052",
			got: hash(Compress(nyxSmall, Options{EB: relBound(nyxSmall, 1e-3), Radius: 8}))},
		{name: "nyx-8x128x128/serial", want: "6082f15451d869e1",
			got: hash(Compress(nyxSlab, Options{EB: relBound(nyxSlab, 1e-3)}))},
		{name: "nyx-8x128x128/chunks16", want: "55289879156e834b",
			got: hash(Compress(nyxSlab, Options{EB: relBound(nyxSlab, 1e-3), Workers: 2, Chunks: 16}))},
		{name: "nyx-8x128x128/serial-radius8", want: "782ff77a70aef7f1",
			got: hash(Compress(nyxSlab, Options{EB: relBound(nyxSlab, 1e-4), Radius: 8}))},
		{name: "spikes-f64-17x9x13/serial", want: "3e143f7325b38ed6",
			got: hash(Compress(spikes, Options{EB: 1e-5}))},
		{name: "spikes-f64-17x9x13/chunks16-radius8", want: "9675b148ab270b10",
			got: hash(Compress(spikes, Options{EB: 1e-3, Radius: 8, Workers: 3, Chunks: 16}))},
	} {
		if c.got != c.want {
			t.Errorf("%s: archive sha256 prefix %s, pinned %s", c.name, c.got, c.want)
		}
	}
}
