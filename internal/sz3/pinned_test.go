package sz3

import (
	"crypto/sha256"
	"encoding/binary"
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

// pinnedCase is one pinned encoder input, f32 or f64, with the sha256
// prefixes of its stream (archive) and of its full decode (decode: every
// value widened to its float64 bits, little-endian).
type pinnedCase struct {
	name, archive, decode string
	f32                   *grid.Grid[float32]
	f64                   *grid.Grid[float64]
	o                     Options
}

func pinnedCases() []pinnedCase {
	nyxSmall := datasets.Nyx(33, 31, 38, 5)
	nyxSlab := datasets.Nyx(8, 128, 128, 1001)
	spikes := spikeField64(17, 9, 13, 31)
	return []pinnedCase{
		{name: "nyx-33x31x38/serial", archive: "b70a58505bae86e2", decode: "2d642081cbeb182c",
			f32: nyxSmall, o: Options{EB: relBound(nyxSmall, 1e-3)}},
		{name: "nyx-33x31x38/chunks16", archive: "cc368fe6acb9aaf5", decode: "5de600c72a7a1fbd",
			f32: nyxSmall, o: Options{EB: relBound(nyxSmall, 1e-3), Workers: 4, Chunks: 16}},
		{name: "nyx-33x31x38/serial-radius8", archive: "f9238f7f7e7195a2", decode: "0a36a61e750371e6",
			f32: nyxSmall, o: Options{EB: relBound(nyxSmall, 1e-3), Radius: 8}},
		{name: "nyx-8x128x128/serial", archive: "a8104d1c824b885b", decode: "8ec95518333cd82f",
			f32: nyxSlab, o: Options{EB: relBound(nyxSlab, 1e-3)}},
		{name: "nyx-8x128x128/chunks16", archive: "b0671b5d4331b472", decode: "018361910868972e",
			f32: nyxSlab, o: Options{EB: relBound(nyxSlab, 1e-3), Workers: 2, Chunks: 16}},
		{name: "nyx-8x128x128/serial-radius8", archive: "66abc43099dd950c", decode: "c9b06493c979776f",
			f32: nyxSlab, o: Options{EB: relBound(nyxSlab, 1e-4), Radius: 8}},
		{name: "spikes-f64-17x9x13/serial", archive: "cbe9f1b24933a29c", decode: "d16e37925d715a87",
			f64: spikes, o: Options{EB: 1e-5}},
		{name: "spikes-f64-17x9x13/chunks16-radius8", archive: "fe0ff6d7b7e3ebdc", decode: "6f395bdb1826302d",
			f64: spikes, o: Options{EB: 1e-3, Radius: 8, Workers: 3, Chunks: 16}},
	}
}

// digests compresses c's input and returns the sha256 prefixes of the
// stream and of its full decode.
func (c pinnedCase) digests() (archive, decode string, err error) {
	if c.f32 != nil {
		return digestsOf(c.f32, c.o)
	}
	return digestsOf(c.f64, c.o)
}

func digestsOf[T grid.Float](g *grid.Grid[T], o Options) (archive, decode string, err error) {
	enc, err := Compress(g, o)
	if err != nil {
		return "", "", err
	}
	dec, err := DecompressWorkers[T](enc, 1)
	if err != nil {
		return "", "", err
	}
	raw := make([]byte, 8*dec.Len())
	for i, v := range dec.Data {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(float64(v)))
	}
	return hashPrefix(enc), hashPrefix(raw), nil
}

func hashPrefix(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// TestPinnedEncoderArchives pins the encoder's output bytes, so a kernel
// that changes one code, one escape or the summation order of one
// prediction fails here and not only in the repository benchmark's
// archive-drift note (the integration corpora pin the decoder: they hold
// archives, not inputs). TestPinnedEncoderDecodes pins the full decode of
// the same inputs; its digests were taken from the version-2 writer and
// reader, so a layout change that only moves codes leaves them standing.
func TestPinnedEncoderArchives(t *testing.T) {
	for _, c := range pinnedCases() {
		got, _, err := c.digests()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.archive {
			t.Errorf("%s: archive sha256 prefix %s, pinned %s", c.name, got, c.archive)
		}
	}
}

func TestPinnedEncoderDecodes(t *testing.T) {
	for _, c := range pinnedCases() {
		_, got, err := c.digests()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.decode {
			t.Errorf("%s: decode sha256 prefix %s, pinned %s", c.name, got, c.decode)
		}
	}
}
