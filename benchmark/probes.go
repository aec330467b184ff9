package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"stz/internal/codec"
	"stz/internal/core"
	"stz/internal/grid"
	"stz/internal/huffman"
	"stz/internal/quant"
	"stz/internal/scratch"
	"stz/internal/sz3"
)

// probeReps is the repetition count of every stand-alone layer probe; the
// reported number is the median.
const probeReps = 15

// probe times f reps times from outside, one span per call, and returns
// the durations in milliseconds.
func (r *run) probe(name string, reps int, f func()) []float64 {
	out := make([]float64, reps)
	op := r.tr.NewOp()
	for i := range out {
		t0 := time.Now()
		f()
		t1 := time.Now()
		r.tr.Add(0, op, "probe."+name, t0, t1)
		out[i] = ms(t1.Sub(t0))
	}
	return out
}

func mbps(bytes int, msPerCall float64) float64 { return frac(float64(bytes)/1e6, msPerCall/1e3) }

// must keeps the probes readable: they call public functions on inputs the
// stages already proved valid, so an error here is a gate failure.
func (r *run) must(err error) {
	if err != nil {
		r.gate("probe: %v", err)
	}
}

// fieldProbes measures the layers under whole-field write+read: core at one
// worker and with the direct predictor, the sz3 substrate, Huffman on a
// proxy code stream, and grid's stride-2 partition.
func (r *run) fieldProbes(m results) {
	in, p := r.in, r.p
	nyx := in.Fields[0]
	rawBytes := 4 * nyx.Len()
	direct := in.coreConfig(0, p.Workers)
	direct.Predictor = core.PredDirect
	dms := r.probe("core.compress_direct", probeReps, func() {
		_, err := core.Compress(nyx, direct)
		r.must(err)
	})

	s := r.samples
	cN, dN := median(s["compress.nyx"]), median(s["decompress.nyx"])
	m.set("core.compress_nyx_ms", cN, len(s["compress.nyx"]))
	m.set("core.compress_miranda_ms", median(s["compress.miranda"]), len(s["compress.miranda"]))
	m.set("core.decompress_nyx_ms", dN, len(s["decompress.nyx"]))
	m.set("core.decompress_miranda_ms", median(s["decompress.miranda"]), len(s["decompress.miranda"]))
	m.set("core.compress_direct_ms", median(dms), probeReps)
	m.set("core.predict_cubic_cost_ms", cN-median(dms), probeReps)
	for _, k := range []string{"l1_base", "level_decode", "level_predict", "level_recon"} {
		m.set("core."+k+"_ms", median(s[k]), len(s[k]))
	}
	m.set("core.ratio_miranda", median(s["ratio.miranda"]), 0)
	m.set("core.max_err_over_eb", quantile(s["err_over_eb"], 1), 0)
	// The single-thread baseline, after the stage's own breakdown is read:
	// its passes add to the same sample keys.
	for i := 0; i < probeReps; i++ {
		r.fieldOnce(0, 1, "nyx_w1")
	}
	m.set("core.compress_w1_ms", median(s["compress.nyx_w1"]), probeReps)
	m.set("core.decompress_w1_ms", median(s["decompress.nyx_w1"]), probeReps)
	m.set("core.par_speedup_compress", frac(median(s["compress.nyx_w1"]), cN), probeReps)
	m.set("core.par_speedup_decompress", frac(median(s["decompress.nyx_w1"]), dN), probeReps)

	// sz3 on the whole field at the same bound and worker count, and on the
	// level-1 input: the stride-4 class at core's tightened level-1 bound.
	opt := sz3.Options{EB: in.EB[0], Workers: p.Workers}
	var full []byte
	enc := r.probe("sz3.full_encode", probeReps, func() {
		var err error
		full, err = sz3.Compress(nyx, opt)
		r.must(err)
	})
	dec := r.probe("sz3.full_decode", probeReps, func() {
		_, err := sz3.DecompressWorkers[float32](full, p.Workers)
		r.must(err)
	})
	m.set("sz3.full_encode_MBps", mbps(rawBytes, median(enc)), probeReps)
	m.set("sz3.full_decode_MBps", mbps(rawBytes, median(dec)), probeReps)
	m.set("sz3.ratio_nyx", frac(float64(rawBytes), float64(len(full))), 0)
	m.set("core.speed_vs_sz3_compress", frac(median(enc), cN), probeReps)
	m.set("core.speed_vs_sz3_decompress", frac(median(dec), dN), probeReps)
	l1 := nyx.ExtractStride(grid.Offset3{}, 4)
	l1opt := sz3.DefaultOptions(in.EB[0] / (2.5 * 2.5))
	var l1arc []byte
	m.set("sz3.l1_encode_ms", median(r.probe("sz3.l1_encode", probeReps, func() {
		var err error
		l1arc, err = sz3.Compress(l1, l1opt)
		r.must(err)
	})), probeReps)
	m.set("sz3.l1_decode_ms", median(r.probe("sz3.l1_decode", probeReps, func() {
		_, err := sz3.Decompress[float32](l1arc)
		r.must(err)
	})), probeReps)

	// Huffman on a proxy for a finest-level class stream: quantisation codes
	// of neighbour differences at the finest-level bound.
	q := quant.New(in.EB[0])
	codes := make([]uint16, nyx.Len())
	prev := float64(nyx.Data[0])
	for i, v := range nyx.Data {
		c, rec, ok := quant.QuantizeT(q, v, prev)
		if !ok {
			c = 0
		}
		codes[i], prev = c, float64(rec)
	}
	var blob []byte
	hEnc := r.probe("huffman.encode", probeReps, func() { blob = huffman.EncodeLanes(codes, q.Alphabet()) })
	dst := make([]uint16, 0, len(codes))
	hDec := r.probe("huffman.decode", probeReps, func() {
		_, err := huffman.DecodeLanesInto(dst, blob, q.Alphabet(), 1)
		r.must(err)
	})
	hDec2 := r.probe("huffman.decode_w2", probeReps, func() {
		_, err := huffman.DecodeLanesInto(dst, blob, q.Alphabet(), 2)
		r.must(err)
	})
	msym := func(msPer float64) float64 { return frac(float64(len(codes))/1e6, msPer/1e3) }
	m.set("huffman.encode_Msym_s", msym(median(hEnc)), probeReps)
	m.set("huffman.decode_Msym_s", msym(median(hDec)), probeReps)
	m.set("huffman.decode_w2_Msym_s", msym(median(hDec2)), probeReps)
	m.set("huffman.bits_per_sym", frac(8*float64(len(blob)), float64(len(codes))), 0)

	var blocks [8]*grid.Grid[float32]
	m.set("grid.partition_ms", median(r.probe("grid.partition", probeReps, func() { blocks = grid.PartitionStride2(nyx) })), probeReps)
	m.set("grid.assemble_ms", median(r.probe("grid.assemble", probeReps, func() {
		grid.AssembleStride2(blocks, nyx.Nz, nyx.Ny, nyx.Nx)
	})), probeReps)
}

// streamProbes measures the layers under partial decodes: core.Reader's
// open, levels and regions, and the registry codec's random access and
// bounded-window streaming on the chunked archive.
func (r *run) streamProbes(m results) {
	in, p := r.in, r.p
	nyx := in.Fields[0]
	rawBytes := 4 * nyx.Len()
	s := r.samples
	set := func(name, key string) { m.set(name, median(s[key]), len(s[key])) }
	set("core.progressive_l1_ms", "preview1")
	set("core.progressive_l2_ms", "preview2")
	set("core.roi32_ms", "roi")
	m.set("core.roi32_p95_ms", quantile(s["roi"], 0.95), len(s["roi"]))
	set("core.roi8_ms", "roi_small")
	set("core.slice_z_ms", "slice")
	set("core.boxes8_ms", "boxes")
	set("core.roi_decoded_class_frac", "roi_class_frac")
	set("codec.box32_cold_ms", "codec_cold")
	set("codec.box_read_frac", "codec_read_frac")

	const openReps = 1000
	m.set("core.open_us", 1e3*median(r.probe("core.open", openReps, func() {
		_, err := r.open()
		r.must(err)
	})), openReps)
	m.set("core.progressive_l3_ms", median(r.probe("core.progressive_l3", probeReps, func() {
		rd, err := r.open()
		r.must(err)
		_, err = rd.Progressive(3)
		r.must(err)
	})), probeReps)
	fullMs := median(r.probe("core.decompress", probeReps, func() {
		rd, err := r.open()
		r.must(err)
		_, err = rd.Decompress()
		r.must(err)
	}))
	m.set("core.decompress_nyx_ms", fullMs, probeReps)
	m.set("core.roi_cost_frac", frac(median(s["roi"]), fullMs), len(s["roi"]))

	cfg := codec.Config{EB: in.EB[0], Workers: p.Workers, Chunks: p.Chunks}
	m.set("codec.encode_ms", median(r.probe("codec.encode", probeReps, func() {
		_, err := codec.Encode("sz3", nyx, cfg)
		r.must(err)
	})), probeReps)
	m.set("codec.decode_ms", median(r.probe("codec.decode", probeReps, func() {
		_, err := codec.Decode[float32](in.Arch[0], p.Workers)
		r.must(err)
	})), probeReps)
	m.set("codec.open_us", 1e3*median(r.probe("codec.open", openReps, func() {
		_, err := codec.OpenReaderAt[float32](in.Arch[0])
		r.must(err)
	})), openReps)
	warm, err := codec.OpenReaderAt[float32](in.Arch[0])
	r.must(err)
	warm.Workers = p.Workers
	box := centredBox(p.Dim, p.Box)
	m.set("codec.box32_warm_ms", median(r.probe("codec.box_warm", 4*probeReps, func() {
		_, err := warm.DecompressBox(box)
		r.must(err)
	})), 4*probeReps)
	var out bytes.Buffer
	m.set("codec.stream_write_MBps", mbps(rawBytes, median(r.probe("codec.stream_write", probeReps, func() {
		out.Reset()
		w, err := codec.NewWriter[float32](&out, "sz3", nyx.Nz, nyx.Ny, nyx.Nx, cfg)
		r.must(err)
		plane := nyx.Ny * nyx.Nx
		for z := 0; z < nyx.Nz && err == nil; z++ {
			err = w.Write(nyx.Data[z*plane : (z+1)*plane])
		}
		r.must(err)
		r.must(w.Close())
	}))), probeReps)
	m.set("codec.stream_read_MBps", mbps(rawBytes, median(r.probe("codec.stream_read", probeReps, func() {
		rd, err := codec.NewReader[float32](bytes.NewReader(out.Bytes()))
		r.must(err)
		_, err = rd.ReadGrid()
		r.must(err)
	}))), probeReps)
}

// procStats is a reading of the process-wide counters behind the
// scratch.* and runtime.* metrics.
type procStats struct {
	mem     runtime.MemStats
	scratch scratch.Stats
}

func readProcStats() procStats {
	var ps procStats
	runtime.ReadMemStats(&ps.mem)
	ps.scratch = scratch.GlobalStats()
	return ps
}

// setProcMetrics reports the movement of the process-wide counters across
// a pass of ops operations.
func setProcMetrics(m results, before, after procStats, ops int64) {
	hits := float64(after.scratch.Hits - before.scratch.Hits)
	misses := float64(after.scratch.Misses - before.scratch.Misses)
	m.set("scratch.pool_hit_frac", frac(hits, hits+misses), 0)
	m.set("runtime.alloc_mb_per_op", frac(float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1e6, float64(ops)), int(ops))
	m.set("runtime.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC), 0)
	m.set("runtime.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, 0)
	m.set("runtime.peak_rss_mb", peakRSSMB(), 0)
}

// peakRSSMB reads VmHWM: one process per workload, so the high-water mark
// is the workload's.
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
