package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"stz/internal/codec"
	"stz/internal/core"
	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/metrics"
	"stz/internal/quant"
	"stz/internal/rawio"
)

// numArchives registry archives are resident on the cluster for the read
// mix: both fields at the workload's bound and at a tenth of it, so the
// four ids differ in content and in bytes per slab.
const numArchives = 4

// Inputs is everything a run reads, all of it a function of (Params, seed).
//
// The rough field is pinned: Nyx at Params.NyxSeed on every seed, so that
// compress_ratio and psnr_db repeat to the last digit and its checksum is
// checked on every run. The smooth field and every position, draw and
// shuffle come from the seed.
type Inputs struct {
	P    Params
	Seed int64

	Fields [2]*grid.Grid[float32] // 0 = Nyx (rough), 1 = Miranda (smooth)
	Names  [2]string              // self-describing corpus names
	EB     [2]float64             // absolute bounds: RelEB of each field's range

	STZ      []byte                                // core archive of the Nyx field
	Full     *grid.Grid[float32]                   // its full decode: the reference every partial decode must match
	Ratio    float64                               // Nyx bytes / len(STZ)
	PSNR     float64                               // Nyx vs Full
	Raw      []byte                                // centred RawDim³ window of Nyx, little-endian f32
	RawArch  []byte                                // its registry archive, the /v1/decompress body
	Arch     [numArchives][]byte                   // Chunks-slab sz3 registry archives
	Ref      [numArchives]*codec.ReaderAt[float32] // local decoders the sampled read bodies are compared with
	ArchFull *grid.Grid[float32]                   // full decode of Arch[0]
	Bounds   []int                                 // z-slab boundaries shared by every Arch
	HotBox   []hotBox
}

// hotBox is one member of the cache-resident read set.
type hotBox struct {
	arch int
	box  grid.Box
}

func fnv64(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

func f32bytes(v []float32) []byte {
	b := make([]byte, 4*len(v))
	rawio.PutValues(b, v)
	return b
}

// randBox draws a cube of the given edge uniformly inside a dim³ grid.
func randBox(rng *rand.Rand, dim, edge int) grid.Box {
	z, y, x := rng.Intn(dim-edge+1), rng.Intn(dim-edge+1), rng.Intn(dim-edge+1)
	return grid.Box{Z0: z, Z1: z + edge, Y0: y, Y1: y + edge, X0: x, X1: x + edge}
}

// coldBox draws a read box that no cache holds: uniform among the boxes
// that do not start on a slab boundary, as seven in eight uniform boxes do
// not. Such a box costs one more slab decode than an aligned one, and
// miss_ms is the cost of a miss, not of whichever kind the draw favoured.
func (in *Inputs) coldBox(rng *rand.Rand) grid.Box {
	slab := in.Bounds[1] - in.Bounds[0]
	for {
		if b := randBox(rng, in.P.Dim, in.P.Box); b.Z0%slab != 0 {
			return b
		}
	}
}

func centredBox(dim, edge int) grid.Box {
	o := (dim - edge) / 2
	return grid.Box{Z0: o, Z1: o + edge, Y0: o, Y1: o + edge, X0: o, X1: o + edge}
}

func archiveID(i int) string { return fmt.Sprintf("bench-a%d", i) }

// makeInputs generates the corpus and encodes every archive.
func makeInputs(p Params, seed int64) (*Inputs, error) {
	in := &Inputs{P: p, Seed: seed}
	d := p.Dim
	in.Fields[0] = datasets.Nyx(d, d, d, p.NyxSeed)
	in.Fields[1] = datasets.Miranda(d, d, d, 1000+seed)
	in.Names[0] = datasets.NameFor("Nyx", d, d, d, p.NyxSeed)
	in.Names[1] = datasets.NameFor("Miranda", d, d, d, 1000+seed)
	for i, g := range in.Fields {
		mn, mx := g.Range()
		in.EB[i] = quant.AbsoluteBound(p.RelEB, float64(mn), float64(mx))
	}

	var err error
	if in.STZ, err = core.Compress(in.Fields[0], in.coreConfig(0, p.Workers)); err != nil {
		return nil, fmt.Errorf("core.Compress %s: %w", in.Names[0], err)
	}
	r, err := core.NewReader[float32](in.STZ)
	if err != nil {
		return nil, err
	}
	r.Workers = p.Workers
	if in.Full, err = r.Decompress(); err != nil {
		return nil, err
	}
	dist, err := metrics.Compare(in.Fields[0], in.Full)
	if err != nil {
		return nil, err
	}
	in.Ratio = float64(4*in.Fields[0].Len()) / float64(len(in.STZ))
	in.PSNR = dist.PSNR

	for i := range in.Arch {
		f := i / 2
		eb := in.EB[f]
		if i%2 == 1 {
			eb /= 10
		}
		in.Arch[i], err = codec.Encode("sz3", in.Fields[f], codec.Config{EB: eb, Workers: p.Workers, Chunks: p.Chunks})
		if err != nil {
			return nil, fmt.Errorf("codec.Encode %s: %w", in.Names[f], err)
		}
		if in.Ref[i], err = codec.OpenReaderAt[float32](in.Arch[i]); err != nil {
			return nil, err
		}
	}
	in.Bounds = in.Ref[0].Header().ChunkBounds
	if in.ArchFull, err = codec.Decode[float32](in.Arch[0], p.Workers); err != nil {
		return nil, err
	}

	raw := in.Fields[0].ExtractBox(centredBox(d, p.RawDim))
	in.Raw = f32bytes(raw.Data)
	in.RawArch, err = codec.Encode("sz3", raw, codec.Config{EB: in.EB[0], Workers: 1, Chunks: 2})
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed*7919 + 1))
	in.HotBox = make([]hotBox, p.HotBoxes)
	for i := range in.HotBox {
		in.HotBox[i] = hotBox{arch: i % numArchives, box: randBox(rng, d, p.Box)}
	}
	return in, nil
}

// coreConfig is the paper's default configuration at field f's bound.
func (in *Inputs) coreConfig(f, workers int) core.Config {
	cfg := core.DefaultConfig(in.EB[f])
	cfg.Workers = workers
	return cfg
}

// checksums returns the FNV-64a digests pins.json records: the generated
// fields by corpus name, the encoded archives by role.
func (in *Inputs) checksums() (corpus, archives map[string]string) {
	corpus = map[string]string{}
	for i, g := range in.Fields {
		corpus[in.Names[i]] = fnv64(f32bytes(g.Data))
	}
	archives = map[string]string{"stz": fnv64(in.STZ), "raw": fnv64(in.RawArch)}
	for i, a := range in.Arch {
		archives[archiveID(i)] = fnv64(a)
	}
	return corpus, archives
}

// checkPins compares this run's inputs with pins.json, wherever it records
// a digest for them: the Nyx field and what is encoded from it alone on
// every seed, the rest at the pinned seed. A corpus mismatch is an error (a
// datasets change must not silently move compress_ratio), archive drift is
// a note.
func (in *Inputs) checkPins(pins Pins) (notes []string, err error) {
	if in.P.Dim != pins.Params.Dim {
		return nil, nil
	}
	corpus, archives := in.checksums()
	for name, sum := range corpus {
		if want, ok := pins.Checksums.Corpus[name]; ok && want != sum {
			return nil, fmt.Errorf("corpus %s has FNV-64a %s, pins.json records %s: the generator changed, re-pin in a benchmark-only change", name, sum, want)
		}
	}
	for name, sum := range archives {
		if (name == archiveID(2) || name == archiveID(3)) && in.Seed != pins.Checksums.Seed {
			continue // encoded from the seeded field
		}
		if want := pins.Checksums.Archives[name]; want != sum {
			notes = append(notes, fmt.Sprintf("archive %s drifted: FNV-64a %s, pinned %s", name, sum, want))
		}
	}
	return notes, nil
}
