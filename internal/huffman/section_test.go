package huffman_test

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"stz/internal/container"
	"stz/internal/core"
	"stz/internal/grid"
	"stz/internal/huffman"
	"stz/internal/sz3"
)

// laneCase is a laned section and what opening it takes: the code's
// alphabet, each lane's symbol count, the section's escape count and its
// inline bytes.
type laneCase struct {
	sec                       []byte
	alphabet, escapes, inline int
	sizes                     []int
}

// blob is the case as one fuzz input: u32 alphabet, escapes and inline, a
// u16 lane count and a u16 size a lane, then the section.
func (lc laneCase) blob() []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(lc.alphabet))
	b = binary.LittleEndian.AppendUint32(b, uint32(lc.escapes))
	b = binary.LittleEndian.AppendUint32(b, uint32(lc.inline))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(lc.sizes)))
	for _, s := range lc.sizes {
		b = binary.LittleEndian.AppendUint16(b, uint16(s))
	}
	return append(b, lc.sec...)
}

// parseCase is blob's inverse; ok is false for an input that is not a
// case.
func parseCase(b []byte) (lc laneCase, ok bool) {
	if len(b) < 14 {
		return lc, false
	}
	u32 := func(i int) int { return int(binary.LittleEndian.Uint32(b[4*i:])) }
	lc.alphabet, lc.escapes, lc.inline = u32(0), u32(1), u32(2)
	lanes := int(binary.LittleEndian.Uint16(b[12:]))
	if lc.alphabet < 1 || lc.alphabet > 1<<16 || lc.inline > len(b) || len(b) < 14+2*lanes {
		return lc, false
	}
	for l := 0; l < lanes; l++ {
		lc.sizes = append(lc.sizes, int(binary.LittleEndian.Uint16(b[14+2*l:])))
	}
	lc.sec = b[14+2*lanes:]
	return lc, true
}

// randomCase writes a random stream as a laned section: up to six lanes,
// among them empty ones and full 4 096-symbol ones, escapes in about half
// the streams and a few inline bytes in some. It returns the case and
// every lane's symbols.
func randomCase(seed int64) (laneCase, [][]uint16) {
	rng := rand.New(rand.NewSource(seed))
	lc := laneCase{alphabet: 2 + rng.Intn(3000), inline: rng.Intn(3) * rng.Intn(9)}
	spread, escRate := 1+rng.Float64()*float64(rng.Intn(200)), rng.Intn(2)*(1+rng.Intn(40))
	lanes := make([][]uint16, 1+rng.Intn(6))
	var all []uint16
	for l := range lanes {
		n := rng.Intn(4097)
		switch rng.Intn(4) {
		case 0:
			n = 0
		case 1:
			n = 4096
		}
		lc.sizes = append(lc.sizes, n)
		for range n {
			c := uint16(min(lc.alphabet-1, max(1, lc.alphabet/2+int(rng.NormFloat64()*spread))))
			if escRate > 0 && rng.Intn(1000) < escRate {
				c = 0
				lc.escapes++
			}
			lanes[l] = append(lanes[l], c)
		}
		all = append(all, lanes[l]...)
	}
	code := huffman.NewCode(all, lc.alphabet)
	defer code.Release()
	sec, dir := code.AppendHead(nil, len(lanes))
	var body []byte
	for range lc.inline {
		body = append(body, byte(rng.Intn(256)))
	}
	for l, codes := range lanes {
		buf := make([]byte, code.LaneBound(len(codes)))
		n := code.WriteLane(buf, codes)
		escs := 0
		for _, c := range codes {
			if c == 0 {
				escs++
			}
		}
		dir.Set(l, n, escs)
		body = append(body, buf[:n]...)
	}
	lc.sec = append(sec, body...)
	return lc, lanes
}

// decodeCase opens sec as lc's section and decodes the touched lanes with
// out (nil: into Decode's stage) and workers, checking what Decode says of
// each lane's escapes against the directory. It returns every touched
// lane's symbols.
func decodeCase(t *testing.T, lc laneCase, sec []byte, touched []int32, out []uint16, workers int) ([][]uint16, error) {
	s, err := huffman.OpenSection(sec, lc.alphabet, lc.sizes, lc.escapes, lc.inline)
	if err != nil {
		return nil, err
	}
	defer s.Release()
	// Each lane's first escape, in lane order and among the touched lanes.
	esc, slot := make([]int, len(lc.sizes)), make([]int, len(lc.sizes))
	for l, e, sl := 0, 0, 0; l < len(lc.sizes); l++ {
		esc[l], slot[l] = e, sl
		e += s.Escapes(l)
		if slices.Contains(touched, int32(l)) {
			sl += s.Escapes(l)
		}
	}
	got := make([][]uint16, len(lc.sizes))
	var wrong atomic.Int32
	err = s.Decode(touched, out, workers, func(c huffman.LaneCodes) {
		got[c.Lane] = append([]uint16(nil), c.Codes...)
		if c.Esc != esc[c.Lane] || c.Slot != slot[c.Lane] || c.Escs != s.Escapes(c.Lane) || len(c.Codes) != lc.sizes[c.Lane] {
			wrong.Add(1)
		}
	})
	if n := wrong.Load(); n > 0 {
		t.Fatalf("Decode misreported %d lanes' sizes or escapes", n)
	}
	return got, err
}

// sectionErr reports whether err is one of the laned section's typed
// failures.
func sectionErr(err error) bool {
	for _, e := range []error{huffman.ErrCodeCount, huffman.ErrLaneDir, huffman.ErrLaneBounds,
		huffman.ErrEscapeCount, huffman.ErrLaneShort, huffman.ErrLaneLong} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// FuzzLaneSection: a laned section decodes any set of its lanes, in
// Decode's stage or in a buffer of the caller's, on one goroutine or two,
// to what the whole section decodes to (a random case: to the symbols it
// was written from). Edits of its directory — (entry, delta) records of
// four bytes each, a delta added to the entry — never panic, and every
// error is a typed one: an edit that changes the lane lengths' sum or the
// escape counts' sum fails, and a decode that succeeds gives every touched
// lane the edits left in place its own symbols. (Edits that keep both sums
// can hand a lane another's bytes; nothing in the format can tell those
// apart from its own unless they fail to decode.) The seeds are a core v4
// class section and an sz3 v3 code section, both with escapes, and random
// cases: an input that is not a case stands for the random case of its
// seed, and a case whose section does not decode whole must only not
// panic.
func FuzzLaneSection(f *testing.F) {
	coreCase, sz3Case := coreSeed(f), sz3Seed(f)
	for _, lc := range []laneCase{coreCase, sz3Case} {
		f.Add(int64(1), lc.blob(), []byte(nil))
		f.Add(int64(2), lc.blob(), []byte{0, 0, 1, 0})
		f.Add(int64(3), lc.blob(), []byte{0, 0, 1, 0, 1, 0, 0xff, 0xff})
		f.Add(int64(4), lc.blob(), binary.LittleEndian.AppendUint16([]byte{0, 0}, uint16(len(lc.sizes))))
	}
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed, []byte(nil), []byte{2, 0, 3, 0})
	}
	f.Fuzz(func(t *testing.T, seed int64, in, edits []byte) {
		lc, ok := parseCase(in)
		var written [][]uint16
		if !ok {
			lc, written = randomCase(seed)
		}
		all := make([]int32, len(lc.sizes))
		for l := range all {
			all[l] = int32(l)
		}
		want, err := decodeCase(t, lc, lc.sec, all, nil, 1)
		if err != nil {
			if written != nil {
				t.Fatalf("the whole section: %v", err)
			}
			return // not a section: it must only not panic
		}
		for l := range written {
			if !slices.Equal(want[l], written[l]) {
				t.Fatalf("lane %d decodes to other symbols than it was written from", l)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		var touched []int32
		for l := range all {
			if rng.Intn(3) > 0 {
				touched = append(touched, int32(l))
			}
		}
		total := 0
		for _, s := range lc.sizes {
			total += s
		}
		for _, workers := range []int{1, 2} {
			for _, out := range [][]uint16{nil, make([]uint16, total)} {
				got, err := decodeCase(t, lc, lc.sec, touched, out, workers)
				if err != nil {
					t.Fatalf("lanes %v, %d workers: %v", touched, workers, err)
				}
				for _, l := range touched {
					if !slices.Equal(got[l], want[l]) {
						t.Fatalf("lane %d of %v, %d workers: other symbols than the whole section's", l, touched, workers)
					}
				}
			}
		}

		// The edits, on a copy of the section.
		_, headLen, err := huffman.HeaderLen(lc.sec, lc.alphabet)
		if err != nil {
			t.Fatal(err)
		}
		lanes, entries := len(lc.sizes), len(lc.sizes)
		if lc.escapes > 0 {
			entries *= 2
		}
		bad := append([]byte(nil), lc.sec...)
		entry := func(b []byte, e int) int { return int(binary.LittleEndian.Uint16(b[headLen+2*e:])) }
		for ; len(edits) >= 4 && entries > 0; edits = edits[4:] {
			e := int(binary.LittleEndian.Uint16(edits)) % entries
			binary.LittleEndian.PutUint16(bad[headLen+2*e:], uint16(entry(bad, e)+int(binary.LittleEndian.Uint16(edits[2:]))))
		}
		// Each lane's start, length, first escape and escape count, and
		// the lengths' and the counts' sums, before and after.
		layout := func(b []byte) ([][4]int, [2]int) {
			ls, sum := make([][4]int, lanes), [2]int{}
			for l := range ls {
				escs := 0
				if lc.escapes > 0 {
					escs = entry(b, lanes+l)
				}
				ls[l] = [4]int{sum[0], entry(b, l), sum[1], escs}
				sum[0] += ls[l][1]
				sum[1] += escs
			}
			return ls, sum
		}
		was, wasSum := layout(lc.sec)
		is, isSum := layout(bad)
		got, err := decodeCase(t, lc, bad, touched, nil, 1)
		switch {
		case err != nil && !sectionErr(err):
			t.Fatalf("edited directory: untyped error %v", err)
		case err == nil && isSum != wasSum:
			t.Fatalf("edited directory sums %v decoded, the section's are %v", isSum, wasSum)
		case err == nil:
			for _, l := range touched {
				if is[l] == was[l] && !slices.Equal(got[l], want[l]) {
					t.Fatalf("lane %d, its directory entries unedited, decodes to other symbols", l)
				}
			}
		}
	})
}

// coreSeed is the finest level's first class section of the core's
// L3-f64-outliers walker case: three levels at EB 1e-6 over a 33×18×21
// f64 field of sines, every fifth value or so ×1e12 — a v4 class section
// of three bricks, its escape values inline.
func coreSeed(tb testing.TB) laneCase {
	const nz, ny, nx = 33, 18, 21
	g := grid.New[float64](nz, ny, nx)
	rng := rand.New(rand.NewSource(77))
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				g.Set(z, y, x, math.Sin(float64(z)/6)*math.Cos(float64(y)/4)+0.7*math.Sin(float64(x)/8+0.5)+0.02*rng.NormFloat64())
			}
		}
	}
	rng = rand.New(rand.NewSource(23))
	for i := range g.Data {
		if rng.Intn(5) == 0 {
			g.Data[i] *= 1e12
		}
	}
	cfg := core.DefaultConfig(1e-6)
	cfg.Levels = 3
	enc, err := core.Compress(g, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	r, err := core.NewReader[float64](enc)
	if err != nil {
		tb.Fatal(err)
	}
	// Section 2 + 7p + c holds predicted level p's class c.
	sec := section(tb, enc, 2+7+0)
	off := grid.Stride2Offsets[1]
	d := [3]int{grid.SubDim(nz, off.Z, 2), grid.SubDim(ny, off.Y, 2), grid.SubDim(nx, off.X, 2)}
	var sizes []int
	for z := 0; z < d[0]; z += 8 {
		for y := 0; y < d[1]; y += 16 {
			for x := 0; x < d[2]; x += 32 {
				sizes = append(sizes, (min(z+8, d[0])-z)*(min(y+16, d[1])-y)*(min(x+32, d[2])-x))
			}
		}
	}
	escapes := int(binary.LittleEndian.Uint32(sec))
	if escapes == 0 || len(sizes) < 3 {
		tb.Fatalf("core seed: %d escapes in %d bricks", escapes, len(sizes))
	}
	return laneCase{sec: sec[4:], alphabet: 2 * int(r.Header().Radius), escapes: escapes, inline: 8 * escapes, sizes: sizes}
}

// sz3Seed is the code section of an sz3 v3 stream of a 9×40×70 f32 field
// with a 1e12 spike every 97th point: lanes of several bricks at the finer
// levels, its escape values in the stream's outlier section.
func sz3Seed(tb testing.TB) laneCase {
	const nz, ny, nx = 9, 40, 70
	g := grid.New[float32](nz, ny, nx)
	for i := range g.Data {
		g.Data[i] = float32(math.Sin(float64(i) / 50))
		if i%97 == 0 {
			g.Data[i] = 1e12
		}
	}
	enc, err := sz3.Compress(g, sz3.Options{EB: 1e-3})
	if err != nil {
		tb.Fatal(err)
	}
	if binary.LittleEndian.Uint32(enc) != sz3.MagicV3 {
		tb.Fatal("sz3 seed: not a v3 serial stream")
	}
	// The lanes, level by level from the coarsest and brick by brick
	// z-major in a level: a brick of the half-stride-h level is 8h×16h×32h
	// grid cells, and holds the points on its h-lattice not on its
	// 2h-lattice.
	s0 := 2
	for s0 < max(nz, ny, nx)-1 {
		s0 *= 2
	}
	on := func(lo, hi, s int) int { return (hi+s-1)/s - (lo+s-1)/s } // multiples of s in [lo, hi)
	var sizes []int
	for h := s0 / 2; h >= 1; h /= 2 {
		for z := 0; z < nz; z += 8 * h {
			for y := 0; y < ny; y += 16 * h {
				for x := 0; x < nx; x += 32 * h {
					z1, y1, x1 := min(z+8*h, nz), min(y+16*h, ny), min(x+32*h, nx)
					sizes = append(sizes, on(z, z1, h)*on(y, y1, h)*on(x, x1, h)-on(z, z1, 2*h)*on(y, y1, 2*h)*on(x, x1, 2*h))
				}
			}
		}
	}
	escapes := int(binary.LittleEndian.Uint32(enc[32:]))
	if escapes == 0 {
		tb.Fatal("sz3 seed: no escapes")
	}
	return laneCase{
		sec:      enc[len(enc)-int(binary.LittleEndian.Uint32(enc[36:])):],
		alphabet: 2 * int(binary.LittleEndian.Uint32(enc[28:])), escapes: escapes, sizes: sizes,
	}
}

func section(tb testing.TB, enc []byte, i int) []byte {
	arc, err := container.Open(enc)
	if err != nil {
		tb.Fatal(err)
	}
	sec, err := arc.Section(i)
	if err != nil {
		tb.Fatal(err)
	}
	return sec
}
