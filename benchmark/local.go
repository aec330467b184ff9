package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"stz/internal/codec"
	"stz/internal/core"
	"stz/internal/grid"
)

// run is the state of one benchmark run: inputs, the optional tracer, the
// operation counts and correctness-gate failures the result line reports,
// and the per-operation latency samples (milliseconds) the metrics are
// medians of.
type run struct {
	p  Params
	in *Inputs
	tr *Tracer

	attempted, failed int64
	gateFails         []string
	samples           map[string][]float64

	// Where the closed loops stand: both are run a slice at a time (see
	// env.pass) and carry on where the last slice stopped.
	fieldNext  int
	streamRng  *rand.Rand
	streamDeck []int
}

func newRun(p Params, in *Inputs, tr *Tracer) *run {
	return &run{p: p, in: in, tr: tr, samples: map[string][]float64{},
		streamRng: rand.New(rand.NewSource(in.Seed*104729 + 2))}
}

// gate records a failed correctness check; any one makes the run incorrect.
func (r *run) gate(format string, a ...any) {
	r.gateFails = append(r.gateFails, fmt.Sprintf(format, a...))
}

// fail is gate for an operation not yet counted as failed.
func (r *run) fail(format string, a ...any) {
	r.failed++
	r.gate(format, a...)
}

func (r *run) observe(name string, d time.Duration) {
	r.samples[name] = append(r.samples[name], float64(d)/1e6)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

var fieldKey = [2]string{"nyx", "miranda"}

var decodeStageNames = []string{
	"sz3.l1_base",
	"huffman.level2_decode", "core.level2_predict", "grid.level2_recon",
	"huffman.level3_decode", "core.level3_predict", "grid.level3_recon",
}

// traceDecode records core.open and core.decode for one reader call, with
// core.decode's children synthesised from the call's core.Stats.
func (r *run) traceDecode(op int32, t0, t1, t2 time.Time, st *core.Stats) {
	if r.tr == nil {
		return
	}
	r.tr.Add(0, op, "core.open", t0, t1)
	id := r.tr.Add(0, op, "core.decode", t1, t2)
	if st == nil {
		return
	}
	r.tr.AddSeq(id, op, t1, decodeStageNames, []time.Duration{
		st.L1SZ3,
		st.LevelDecode[0], st.LevelPredict[0], st.LevelRecon[0],
		st.LevelDecode[1], st.LevelPredict[1], st.LevelRecon[1],
	})
}

// maxAbsErr returns the largest point-wise |a−b|, or +Inf on a dims mismatch.
func maxAbsErr(a, b *grid.Grid[float32]) float64 {
	if a.Nz != b.Nz || a.Ny != b.Ny || a.Nx != b.Nx {
		return math.Inf(1)
	}
	var m float64
	for i, v := range a.Data {
		if e := math.Abs(float64(v) - float64(b.Data[i])); e > m || e != e {
			m = e
		}
	}
	return m
}

// sameGrid reports whether got is bit-for-bit the window want.
func sameGrid(got, want *grid.Grid[float32]) bool {
	if got == nil || got.Nz != want.Nz || got.Ny != want.Ny || got.Nx != want.Nx {
		return false
	}
	for i, v := range want.Data {
		if math.Float32bits(v) != math.Float32bits(got.Data[i]) {
			return false
		}
	}
	return true
}

// readsPerWrite: a field is written once and read back twice. A decode
// takes half as long as the encode and is the shakier of the two on a
// shared core (both workers must be left alone), so it gets the samples.
const readsPerWrite = 2

// fieldOnce compresses field f and decodes the result, the paper's
// whole-field write+read, and checks the bound point-wise on every decode.
func (r *run) fieldOnce(f, workers int, key string) {
	g := r.in.Fields[f]
	op := r.tr.NewOp()
	r.attempted += 1 + readsPerWrite
	t0 := time.Now()
	arc, err := core.Compress(g, r.in.coreConfig(f, workers))
	t1 := time.Now()
	if err != nil {
		r.fail("core.Compress %s: %v", r.in.Names[f], err)
		return
	}
	r.tr.Add(0, op, "core.compress", t0, t1)
	r.observe("compress."+key, t1.Sub(t0))
	r.samples["ratio."+key] = append(r.samples["ratio."+key], float64(4*g.Len())/float64(len(arc)))

	for i := 0; i < readsPerWrite; i++ {
		t2 := time.Now()
		rd, err := core.NewReader[float32](arc)
		if err != nil {
			r.fail("core.NewReader %s: %v", r.in.Names[f], err)
			return
		}
		rd.Workers = workers
		t3 := time.Now()
		out, st, err := rd.DecompressStats()
		t4 := time.Now()
		if err != nil {
			r.fail("core.Decompress %s: %v", r.in.Names[f], err)
			return
		}
		r.traceDecode(op, t2, t3, t4, st)
		r.observe("decompress."+key, t4.Sub(t2))
		r.observe("l1_base", st.L1SZ3)
		r.observe("level_decode", st.LevelDecode[0]+st.LevelDecode[1])
		r.observe("level_predict", st.LevelPredict[0]+st.LevelPredict[1])
		r.observe("level_recon", st.LevelRecon[0]+st.LevelRecon[1])
		e := maxAbsErr(g, out)
		if !(e <= r.in.EB[f]) {
			r.fail("field-rw %s: max abs error %g exceeds bound %g (or dims differ)", r.in.Names[f], e, r.in.EB[f])
		}
		r.samples["err_over_eb"] = append(r.samples["err_over_eb"], e/r.in.EB[f])
	}
}

// fieldStage is a slice d of the closed loop of one caller alternating the
// two fields. It always completes one write+read.
func (r *run) fieldStage(d time.Duration) {
	end := time.Now().Add(d)
	for first := true; first || time.Now().Before(end); first = false {
		r.fieldOnce(r.fieldNext%2, r.p.Workers, fieldKey[r.fieldNext%2])
		r.fieldNext++
	}
}

// The stream stage's operations.
const (
	opPreview1 = iota
	opPreview2
	opROI
	opROISmall
	opSlice
	opBoxes
	opCodecCold
)

const boxesPerCall = 8

// open parses the resident STZ archive; every stream op starts from bytes.
func (r *run) open() (*core.Reader[float32], error) {
	rd, err := core.NewReader[float32](r.in.STZ)
	if err != nil {
		return nil, err
	}
	rd.Workers = r.p.Workers
	return rd, nil
}

// streamOnce runs one partial decode and checks it against the same window
// of the full decode.
func (r *run) streamOnce(kind int, rng *rand.Rand) {
	in, d := r.in, r.p.Dim
	op := r.tr.NewOp()
	r.attempted++
	if kind == opCodecCold {
		b := randBox(rng, d, r.p.Box)
		t0 := time.Now()
		ra, err := codec.OpenReaderAt[float32](in.Arch[0])
		if err != nil {
			r.fail("codec.OpenReaderAt: %v", err)
			return
		}
		ra.Workers = r.p.Workers
		t1 := time.Now()
		got, err := ra.DecompressBox(b)
		t2 := time.Now()
		r.tr.Add(0, op, "codec.open", t0, t1)
		r.tr.Add(0, op, "codec.box", t1, t2)
		if err != nil || !sameGrid(got, in.ArchFull.ExtractBox(b)) {
			r.fail("stream-read: cold codec box %v differs from the full decode (err %v)", b, err)
		}
		r.observe("codec_cold", t2.Sub(t0))
		r.samples["codec_read_frac"] = append(r.samples["codec_read_frac"], frac(float64(ra.BytesRead()), float64(ra.PayloadBytes())))
		return
	}

	t0 := time.Now()
	rd, err := r.open()
	if err != nil {
		r.fail("core.NewReader: %v", err)
		return
	}
	t1 := time.Now()
	switch kind {
	case opPreview1, opPreview2:
		lv := 1 + kind - opPreview1
		got, err := rd.Progressive(lv)
		t2 := time.Now()
		r.traceDecode(op, t0, t1, t2, nil)
		want := d
		for i := lv; i < 3; i++ {
			want = grid.SubDim(want, 0, 2)
		}
		if err != nil || got.Nz != want || got.Ny != want || got.Nx != want {
			r.fail("stream-read: level %d is not %d³ (err %v)", lv, want, err)
		}
		r.observe(fmt.Sprintf("preview%d", lv), t2.Sub(t0))
	case opROI, opROISmall, opSlice:
		b, name := randBox(rng, d, r.p.Box), "roi"
		if kind == opROISmall {
			b, name = randBox(rng, d, r.p.SmallBox), "roi_small"
		} else if kind == opSlice {
			b, name = grid.SliceZBox(in.Full, rng.Intn(d)), "slice"
		}
		var got *grid.Grid[float32]
		var st *core.Stats
		if kind == opSlice {
			got, st, err = rd.DecompressSliceZ(b.Z0)
		} else {
			got, st, err = rd.DecompressBox(b)
		}
		t2 := time.Now()
		r.traceDecode(op, t0, t1, t2, st)
		if err != nil || !sameGrid(got, in.Full.ExtractBox(b)) {
			r.fail("stream-read: %s %v differs from the full decode (err %v)", name, b, err)
			return
		}
		r.observe(name, t2.Sub(t0))
		if kind == opROI {
			dec := st.DecodedClasses[0] + st.DecodedClasses[1]
			all := dec + st.SkippedClasses[0] + st.SkippedClasses[1]
			r.samples["roi_class_frac"] = append(r.samples["roi_class_frac"], frac(float64(dec), float64(all)))
		}
	case opBoxes:
		boxes := make([]grid.Box, boxesPerCall)
		for i := range boxes {
			boxes[i] = randBox(rng, d, r.p.Box)
		}
		got, st, err := rd.DecompressBoxes(boxes)
		t2 := time.Now()
		r.traceDecode(op, t0, t1, t2, st)
		for i := range boxes {
			if err != nil || !sameGrid(got[i], in.Full.ExtractBox(boxes[i])) {
				r.fail("stream-read: DecompressBoxes[%d] %v differs from the full decode (err %v)", i, boxes[i], err)
				return
			}
		}
		r.observe("boxes", t2.Sub(t0))
	}
}

// streamDeck is one cycle of the stream stage: every partial decode once,
// and the two the end-to-end metrics are made of, the level-2 preview and
// the 32³ box, twice.
var streamDeck = []int{opPreview1, opPreview2, opPreview2, opROI, opROI, opROISmall, opSlice, opBoxes, opCodecCold}

// streamStage is a slice d of the closed loop of one caller running seeded
// shuffled cycles of the partial decodes. It always completes one decode.
func (r *run) streamStage(d time.Duration) {
	end := time.Now().Add(d)
	for first := true; first || time.Now().Before(end); first = false {
		if len(r.streamDeck) == 0 {
			for _, i := range r.streamRng.Perm(len(streamDeck)) {
				r.streamDeck = append(r.streamDeck, streamDeck[i])
			}
		}
		kind := r.streamDeck[0]
		r.streamDeck = r.streamDeck[1:]
		r.streamOnce(kind, r.streamRng)
	}
}

// checkFullLevel is the gate that the finest progressive level is the full
// decode. It runs once per set-up: the cycle itself stops at level 2.
func (r *run) checkFullLevel() {
	rd, err := r.open()
	if err != nil {
		r.fail("core.NewReader: %v", err)
		return
	}
	got, err := rd.Progressive(3)
	if err != nil || !sameGrid(got, r.in.Full) {
		r.fail("stream-read: level 3 differs from the full decode (err %v)", err)
	}
}
