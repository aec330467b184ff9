package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/scratch"
	"stz/internal/scratch/scratchtest"
)

// TestCorePooledMatchesUnpooled asserts, under concurrency, that STZ
// archives and reconstructions with the scratch arenas active are
// byte-identical to the unpooled path: the default fused quantizing path,
// written and read, and the chunked-codes layout of version 3, read from
// its fixture.
func TestCorePooledMatchesUnpooled(t *testing.T) {
	g := datasets.Nyx(33, 31, 38, 9)
	cfg := DefaultConfig(1e-3)
	cfg.Workers = 4

	prev := scratch.SetEnabled(false)
	plain, err := Compress(g, cfg)
	if err != nil {
		t.Fatalf("reference compress: %v", err)
	}
	// "default" is compressed again under the arenas; "codechunk" is only read.
	refArc := map[string][]byte{"default": plain, "codechunk": encodeCase[float32](t, walkerCaseNamed(t, "L3-f32-chunk4096"))}
	refDec := map[string][]float32{}
	for name, enc := range refArc {
		dec, err := Decompress[float32](enc)
		if err != nil {
			t.Fatalf("%s: reference decompress: %v", name, err)
		}
		refDec[name] = dec.Data
	}
	scratch.SetEnabled(true)
	defer scratch.SetEnabled(prev)

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name, ref := range refArc {
				for r := 0; r < 3; r++ {
					enc := ref
					if name == "default" {
						var err error
						if enc, err = Compress(g, cfg); err != nil {
							errc <- fmt.Errorf("%s: compress: %v", name, err)
							return
						}
						if !bytes.Equal(enc, ref) {
							errc <- fmt.Errorf("%s: pooled archive differs", name)
							return
						}
					}
					dec, err := Decompress[float32](enc)
					if err != nil {
						errc <- fmt.Errorf("%s: decompress: %v", name, err)
						return
					}
					for i := range dec.Data {
						if math.Float32bits(dec.Data[i]) != math.Float32bits(refDec[name][i]) {
							errc <- fmt.Errorf("%s: pooled reconstruction differs at %d", name, i)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestCoreRandomAccessPooled covers the random-access decode paths that
// leave part of a leased buffer unwritten — skipped chunks of a chunked
// stream, skipped lanes and lane tails of a multi-lane one, and the level-1
// and intermediate grids, leased or cut to each level's need and dirty
// outside the cone — against the unpooled result, on 3- and 4-level streams
// at Workers 1, 2 and 4, with the arenas poisoned before every decode
// (all-ones codes are an in-range symbol that dequantizes to garbage, NaN
// floats poison any prediction): no box may read a code its decode skipped
// or a point outside a level's need.
func TestCoreRandomAccessPooled(t *testing.T) {
	g := datasets.Nyx(40, 36, 44, 3)
	deep := DefaultConfig(1e-3)
	deep.Levels = 4
	boxes := []grid.Box{
		{Z0: 5, Z1: 30, Y0: 3, Y1: 20, X0: 7, X1: 33},
		{Z0: 23, Z1: 29, Y0: 0, Y1: 36, X0: 0, X1: 44}, // third z-quarter: lanes 0 and 1 skipped
		{Z0: 38, Z1: 39, Y0: 30, Y1: 31, X0: 40, X1: 41},
		{Z0: 17, Z1: 21, Y0: 14, Y1: 15, X0: 20, X1: 21}, // one point wide: one-point-wide windows below
	}
	archives := map[string][]byte{
		// 48×40×44, chunks of 4096 codes: three to a finest-level class.
		"codechunk": encodeCase[float32](t, walkerCaseNamed(t, "L3-f32-chunk4096")),
	}
	for name, cfg := range map[string]Config{"lanes": DefaultConfig(1e-3), "lanes-L4": deep} {
		enc, err := Compress(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		archives[name] = enc
	}
	for name, enc := range archives {
		for _, box := range boxes {
			prev := scratch.SetEnabled(false)
			r1, err := NewReader[float32](enc)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := r1.DecompressBox(box)
			scratch.SetEnabled(true)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				for i := 0; i < 3; i++ {
					scratchtest.Poison(g.Len())
					r2, err := NewReader[float32](enc)
					if err != nil {
						t.Fatal(err)
					}
					r2.Workers = workers
					got, _, err := r2.DecompressBox(box)
					if err != nil {
						t.Fatal(err)
					}
					for j := range want.Data {
						if math.Float32bits(got.Data[j]) != math.Float32bits(want.Data[j]) {
							t.Fatalf("%s w%d %+v: pooled random-access decode differs at %d (round %d)", name, workers, box, j, i)
						}
					}
				}
			}
			scratch.SetEnabled(prev)
		}
	}
}

// TestCraftedCodeChunkHeaderBounded patches the CodeChunk of a chunked
// version-3 stream (the uint32 at offset 40 of the header) to a huge value:
// decode must fail cleanly without attempting a CodeChunk-sized allocation
// — the staging lease is capped at the class size.
func TestCraftedCodeChunkHeaderBounded(t *testing.T) {
	wc := walkerCaseNamed(t, "L3-f64-chunk512-outliers")
	mut := patchHeader(t, encodeCase[float64](t, wc), func(h []byte) { binary.LittleEndian.PutUint32(h[40:], 0xFFFFFFFF) })
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := Decompress[float64](mut)
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatal("huge CodeChunk with stale chunk layout accepted")
	}
	if alloc := m1.TotalAlloc - m0.TotalAlloc; alloc > 64<<20 {
		t.Errorf("refusing the chunk size allocated %d bytes", alloc)
	}
}

// leaseBalance returns, per arena, leases minus releases so far.
func leaseBalance() map[string]int64 {
	out := map[string]int64{}
	for name, s := range scratch.All() {
		out[name] = int64(s.Hits+s.Misses) - int64(s.Releases+s.Discards)
	}
	return out
}

// TestCompressLeaseBalance: Compress hands back every scratch buffer it
// leases — the level-1 reconstruction, the lane buffers and, on a field
// whose top brick slabs code far denser than the average slab, the lane
// buffers re-leased as they outgrow their first lease included. A lease
// dropped (or a foreign slice released) on any path shows as a per-arena
// imbalance over 10 calls.
func TestCompressLeaseBalance(t *testing.T) {
	prev := scratch.SetEnabled(true)
	defer scratch.SetEnabled(prev)
	g := datasets.Nyx(33, 31, 38, 9)
	def := DefaultConfig(1e-3)
	def.Workers = 4
	checkLeaseBalance(t, "default", false, func() error { _, err := Compress(g, def); return err })
	dense := grid.New[float32](24, 128, 256)
	rng := rand.New(rand.NewSource(4))
	for i := range dense.Data {
		dense.Data[i] = float32(math.Sin(float64(i%256) / 16))
		if i >= 2*len(dense.Data)/3 {
			dense.Data[i] += float32(30 * rng.NormFloat64())
		}
	}
	cfg := DefaultConfig(1e-3)
	checkLeaseBalance(t, "dense top slabs", false, func() error {
		enc, err := Compress(dense, cfg)
		if err == nil {
			var rec *grid.Grid[float32]
			if rec, err = Decompress[float32](enc); err == nil {
				checkBound(t, dense, rec, cfg.EB, "dense top slabs")
			}
		}
		return err
	})
	for _, wc := range walkerCases() {
		if wc.name != "L3-f64-outliers" {
			continue
		}
		for _, workers := range []int{1, 4} {
			wc.cfg.Workers = workers
			field := caseField[float64](wc)
			checkLeaseBalance(t, fmt.Sprintf("%s/w%d", wc.name, workers), false, func() error { _, err := Compress(field, wc.cfg); return err })
		}
	}
}

// checkLeaseBalance runs op once to warm up (first-call growth is not
// steady state), then 10 times, and fails when some arena's leases minus
// releases moved: a lease dropped, or a foreign slice released, on op's
// path. wantErr says whether every call of op must fail.
func checkLeaseBalance(t *testing.T, name string, wantErr bool, op func() error) {
	t.Helper()
	call := func() {
		t.Helper()
		if err := op(); (err != nil) != wantErr {
			t.Fatalf("%s: err %v, want error %v", name, err, wantErr)
		}
	}
	call()
	before := leaseBalance()
	for i := 0; i < 10; i++ {
		call()
	}
	for arena, b := range leaseBalance() {
		if d := b - before[arena]; d != 0 {
			t.Errorf("%s: arena %s leased %+d more buffers than it got back over 10 calls", name, arena, d)
		}
	}
}

// decodeOps are the read paths of r: the full decode, every progressive
// level, one box, several boxes and a z-slice.
func decodeOps[T grid.Float](r *Reader[T]) map[string]func() error {
	h := r.Header()
	box := interiorBox(h)
	ops := map[string]func() error{
		"Decompress":       func() error { _, err := r.Decompress(); return err },
		"DecompressBox":    func() error { _, _, err := r.DecompressBox(box); return err },
		"DecompressSliceZ": func() error { _, _, err := r.DecompressSliceZ(h.Fz / 2); return err },
		"DecompressBoxes": func() error {
			_, _, err := r.DecompressBoxes([]grid.Box{box, {Z1: 2, Y1: 3, X1: 1}, {Z0: h.Fz - 1, Y0: 1, X0: 2, Z1: h.Fz, Y1: h.Fy, X1: 3}})
			return err
		},
	}
	for lv := 1; lv <= h.Levels; lv++ {
		ops[fmt.Sprintf("Progressive(%d)", lv)] = func() error { _, err := r.Progressive(lv); return err }
	}
	return ops
}

func decodeLeaseBalance[T grid.Float](t *testing.T, wc walkerCase, enc []byte, workers int) {
	r, err := NewReader[T](enc)
	if err != nil {
		t.Fatal(err)
	}
	r.Workers = workers
	for op, fn := range decodeOps(r) {
		checkLeaseBalance(t, fmt.Sprintf("%s/w%d %s", wc.name, workers, op), false, fn)
	}
}

// TestDecodeLeaseBalance: every read path hands back every scratch buffer
// it leases — code and outlier leases of every level, held at once by the
// decode phase, the level-1 grid and the intermediates — and releases none
// it did not lease, on every walker case at Workers 1, 2 and 4, and on the
// error exits: a corrupt level-1 section, a corrupt finest-level class
// section (both fail in the decode phase) and a level-2 class whose
// outliers are one short (which fails in the sweep, beside a leased
// intermediate).
func TestDecodeLeaseBalance(t *testing.T) {
	prev := scratch.SetEnabled(true)
	defer scratch.SetEnabled(prev)
	for _, wc := range walkerCases() {
		enc := wc.encode(t)
		for _, workers := range []int{1, 2, 4} {
			if wc.f32 {
				decodeLeaseBalance[float32](t, wc, enc, workers)
			} else {
				decodeLeaseBalance[float64](t, wc, enc, workers)
			}
		}
	}

	var outliers walkerCase
	for _, wc := range walkerCases() {
		if wc.name == "L3-f64-outliers" {
			outliers = wc
		}
	}
	enc := outliers.encode(t)
	r, err := NewReader[float64](enc)
	if err != nil {
		t.Fatal(err)
	}
	l1 := section(t, enc, 1)
	finest := r.classSection(1, 6)
	cls := section(t, enc, finest)
	short := r.classSection(0, 6)
	sec := section(t, enc, short)
	nOut := binary.LittleEndian.Uint32(sec)
	if nOut == 0 {
		t.Fatal("level-2 class 6 has no outliers to truncate")
	}
	trunc := binary.LittleEndian.AppendUint32(nil, nOut-1)
	trunc = append(trunc, sec[4:4+8*(nOut-1)]...)
	trunc = append(trunc, sec[4+8*nOut:]...)
	// The missing outlier is the class's last, which only the decodes that
	// rebuild all of level 2 reach.
	for _, tc := range []struct {
		name string
		bad  []byte
		ops  []string
	}{
		{"corrupt section 1", withSections(t, enc, map[int][]byte{1: l1[:len(l1)/2]}), []string{"Decompress", "DecompressBox"}},
		{"corrupt level-3 class", withSections(t, enc, map[int][]byte{finest: cls[:len(cls)/2]}), []string{"Decompress", "DecompressBox"}},
		{"level-2 outliers short", withSections(t, enc, map[int][]byte{short: trunc}), []string{"Decompress", "Progressive(2)"}},
	} {
		for _, workers := range []int{1, 2, 4} {
			rb, err := NewReader[float64](tc.bad)
			if err != nil {
				t.Fatal(err)
			}
			rb.Workers = workers
			ops := decodeOps(rb)
			for _, op := range tc.ops {
				checkLeaseBalance(t, fmt.Sprintf("%s/w%d %s", tc.name, workers, op), true, ops[op])
			}
		}
	}
}
