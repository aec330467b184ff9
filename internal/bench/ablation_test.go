package bench

import (
	"math"
	"testing"

	"stz/internal/core"
	"stz/internal/datasets"
)

// coreFraming is what an archive of the paper's codec holds beyond its
// sections' payloads for one section more than a sub-block container: the
// core's 44-byte header and its 8-byte container directory entry. The
// Partition and SZ3-residual rungs were once core configurations and wrote
// both; rebuilt here, they write the same sub-streams without them.
const coreFraming = 44 + 8

// TestAblationLadderGolden pins the Fig. 5 ladder — its Partition rung is
// also Fig. 3's — on the tiny-scale Nyx field (32³, what stzbench -scale
// tiny generates) at every EBSweep bound: the PSNR as float bits and the
// compressed size. The pins were recorded while the Partition and
// SZ3-residual rungs were configurations of internal/core; their rebuilds
// must reproduce every PSNR bit for bit and every size less exactly
// coreFraming. The other rungs are core configurations and must match
// exactly. And at every bound the full codec must beat the naive
// partition: the point of hierarchical prediction.
func TestAblationLadderGolden(t *testing.T) {
	type pin struct {
		psnr  uint64
		bytes int
	}
	pins := map[string][7]pin{
		"Partition":            {{0x4053afbb7f2db783, 27084}, {0x4051b0c926285c61, 21070}, {0x405034ebeb46b54e, 16829}, {0x404d775ded0a1967, 12741}, {0x4049dce2406ad14c, 8614}, {0x404762032327be97, 6778}, {0x404542bc777d6c8c, 5752}},
		"Direct pred":          {{0x4053b11bbb3f1bb7, 28164}, {0x4051b1f835cb0805, 22119}, {0x405035e182562180, 17859}, {0x404d78939b54c18c, 13937}, {0x4049de19b114f0f5, 9311}, {0x404762ad85839fd1, 7096}, {0x4045435f80fe36e0, 5920}},
		"Multi-dim Interp":     {{0x4053b22ec980ca16, 25672}, {0x4051b0d37af5b845, 19814}, {0x405034e0e1000b79, 15708}, {0x404d71e641abceb1, 11800}, {0x4049c225d2e4221a, 7903}, {0x40474a35fe0f0acf, 6265}, {0x4044f098f5c84207, 5446}},
		"Multi-dim + Qt":       {{0x4053b175564499b9, 23536}, {0x4051b2621b4f15cc, 17755}, {0x40503a65ff379b14, 13731}, {0x404d8ececee5db92, 9946}, {0x404a254dcd85cabc, 6665}, {0x4047e3b520f238c6, 5410}, {0x4045685367a9c945, 4836}},
		"Cubic-Multi + Qt":     {{0x4053b294b0a31baa, 23291}, {0x4051b39d5c4bc675, 17519}, {0x40503b68677634be, 13481}, {0x404d8b7cffea5a9f, 9754}, {0x404a1c2eb5f09d53, 6560}, {0x4047d6a355008c0b, 5348}, {0x404553bc483dcf8c, 4798}},
		"Cubic-Multi-Qt + Adp": {{0x4053cea50bc43e0a, 24099}, {0x4051d6737217790c, 18237}, {0x40506387c5aa8086, 14040}, {0x404e0707e5743c86, 10294}, {0x404ace4c27b3b39f, 6939}, {0x4048be475aab6ade, 5601}, {0x4046e7994346f492, 4911}},
		"3-level + All":        {{0x4053cfd72f3ee780, 25121}, {0x4051d711f985bfcb, 18963}, {0x4050654bc9119014, 14659}, {0x404e0ad81066308f, 10791}, {0x404add1a206cc022, 7335}, {0x4048d05a813c4fe1, 5911}, {0x40470fc948e2787a, 5186}},
	}
	framing := map[string]int{"Partition": coreFraming, "Direct pred": coreFraming, "Multi-dim Interp": coreFraming}
	s := datasets.All()[0]
	g := s.Generate32(32, 32, 32, s.Seed)
	sizes := map[string][]int{}
	for _, c := range Fig5Ladder[float32]() {
		want, ok := pins[c.Name]
		if !ok {
			t.Errorf("%s: no pinned rung", c.Name)
			continue
		}
		for i, eb := range EBSweep {
			r, err := Run(c, g, eb, 2, false)
			if err != nil {
				t.Fatalf("%s eb %g: %v", c.Name, eb, err)
			}
			if got := math.Float64bits(r.PSNR); got != want[i].psnr {
				t.Errorf("%s eb %g: PSNR %v (%#x), pinned %v (%#x)", c.Name, eb, r.PSNR, got, math.Float64frombits(want[i].psnr), want[i].psnr)
			}
			if got := r.CompressedBytes + framing[c.Name]; got != want[i].bytes {
				t.Errorf("%s eb %g: %d bytes + %d framing, pinned %d", c.Name, eb, r.CompressedBytes, framing[c.Name], want[i].bytes)
			}
			sizes[c.Name] = append(sizes[c.Name], r.CompressedBytes)
		}
	}
	for i, eb := range EBSweep {
		if full, part := sizes["3-level + All"][i], sizes["Partition"][i]; full >= part {
			t.Errorf("eb %g: the full codec (%d bytes) does not beat the naive partition (%d)", eb, full, part)
		}
	}
}

// TestAblationRungsOddDims: the rebuilt rungs round-trip within the bound
// on a grid whose parity classes all differ in size, and on one a point
// thick, whose z-offset sub-blocks are empty sections.
func TestAblationRungsOddDims(t *testing.T) {
	for _, d := range [][3]int{{9, 14, 11}, {1, 9, 14}} {
		g := datasets.WarpX(d[0], d[1], d[2], 3)
		for _, c := range []Codec[float64]{Partition[float64](), SZ3Residual[float64](core.PredLinear)} {
			if _, err := Run(c, g, 1e-3, 2, false); err != nil {
				t.Errorf("%s %v: %v", c.Name, d, err)
			}
		}
	}
}
