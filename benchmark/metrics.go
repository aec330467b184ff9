package main

// metricDef is one row of the benchmark's metric tables. The tables are
// the single list of names this driver can print; TestContractMatches
// holds them equal to BENCHMARK.json, so a performance claim can cite a
// name from either and mean the same number.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen
}

// endToEnd are the numbers a user of the system sees. Every workload
// reports all of them (the driver's contract), each measured by the stage
// named in README.md; the workload decides which stage gets the long window.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"compress_MBps", "MB/s", "higher", 0.25},
	{"decompress_MBps", "MB/s", "higher", 0.25},
	{"compress_ratio", "ratio", "higher", 0.005},
	{"psnr_db", "dB", "higher", 0.002},
	{"preview_ms", "ms", "lower", 0.25},
	{"roi_ms", "ms", "lower", 0.25},
	{"hit_p50_ms", "ms", "lower", 0.25},
	{"miss_ms", "ms", "lower", 0.25},
	{"max_rate_rps", "1/s", "higher", 0.25},
	{"put_ms", "ms", "lower", 0.25},
	{"compress_ms", "ms", "lower", 0.25},
}

// perLayer are the single-layer probes of the traced run, layer = package
// name. A layer's metrics are measured on the workload whose focus stage
// runs that layer and read 0 elsewhere (stzd never imports core, so core.*
// is 0 on serve-*); scratch/runtime/trace/cpu are measured on every one.
var perLayer = []metricDef{
	// core, write side and decode breakdown: field-rw.
	{Name: "core.compress_nyx_ms", Unit: "ms", Better: "lower"},
	{Name: "core.compress_miranda_ms", Unit: "ms", Better: "lower"},
	{Name: "core.decompress_nyx_ms", Unit: "ms", Better: "lower"},
	{Name: "core.decompress_miranda_ms", Unit: "ms", Better: "lower"},
	{Name: "core.compress_w1_ms", Unit: "ms", Better: "lower"},
	{Name: "core.decompress_w1_ms", Unit: "ms", Better: "lower"},
	{Name: "core.par_speedup_compress", Unit: "ratio", Better: "higher"},
	{Name: "core.par_speedup_decompress", Unit: "ratio", Better: "higher"},
	{Name: "core.compress_direct_ms", Unit: "ms", Better: "lower"},
	{Name: "core.predict_cubic_cost_ms", Unit: "ms", Better: "lower"},
	{Name: "core.l1_base_ms", Unit: "ms", Better: "lower"},
	{Name: "core.level_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "core.level_predict_ms", Unit: "ms", Better: "lower"},
	{Name: "core.level_recon_ms", Unit: "ms", Better: "lower"},
	{Name: "core.ratio_miranda", Unit: "ratio", Better: "higher"},
	{Name: "core.max_err_over_eb", Unit: "ratio", Better: "lower"},
	{Name: "core.speed_vs_sz3_compress", Unit: "ratio", Better: "higher"},
	{Name: "core.speed_vs_sz3_decompress", Unit: "ratio", Better: "higher"},
	// core, read side: stream-read.
	{Name: "core.open_us", Unit: "us", Better: "lower"},
	{Name: "core.progressive_l1_ms", Unit: "ms", Better: "lower"},
	{Name: "core.progressive_l2_ms", Unit: "ms", Better: "lower"},
	{Name: "core.progressive_l3_ms", Unit: "ms", Better: "lower"},
	{Name: "core.roi32_ms", Unit: "ms", Better: "lower"},
	{Name: "core.roi32_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "core.roi8_ms", Unit: "ms", Better: "lower"},
	{Name: "core.slice_z_ms", Unit: "ms", Better: "lower"},
	{Name: "core.boxes8_ms", Unit: "ms", Better: "lower"},
	{Name: "core.roi_decoded_class_frac", Unit: "frac", Better: "lower"},
	{Name: "core.roi_cost_frac", Unit: "frac", Better: "lower"},
	// huffman, sz3, grid: field-rw.
	{Name: "huffman.encode_Msym_s", Unit: "Msym/s", Better: "higher"},
	{Name: "huffman.decode_Msym_s", Unit: "Msym/s", Better: "higher"},
	{Name: "huffman.decode_w2_Msym_s", Unit: "Msym/s", Better: "higher"},
	{Name: "huffman.bits_per_sym", Unit: "bit", Better: "lower"},
	{Name: "sz3.l1_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "sz3.l1_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "sz3.full_encode_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "sz3.full_decode_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "sz3.ratio_nyx", Unit: "ratio", Better: "higher"},
	{Name: "grid.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "grid.assemble_ms", Unit: "ms", Better: "lower"},
	// codec: stream-read.
	{Name: "codec.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "codec.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "codec.open_us", Unit: "us", Better: "lower"},
	{Name: "codec.box32_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "codec.box32_warm_ms", Unit: "ms", Better: "lower"},
	{Name: "codec.box_read_frac", Unit: "frac", Better: "lower"},
	{Name: "codec.stream_write_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "codec.stream_read_MBps", Unit: "MB/s", Better: "higher"},
	// stzd, read path: serve-read.
	{Name: "stzd.box_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "stzd.hot_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "stzd.cold_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "stzd.miss_cost_ms", Unit: "ms", Better: "lower"},
	{Name: "stzd.box_decodes", Unit: "count", Better: "lower"},
	{Name: "stzd.box_evictions", Unit: "count", Better: "lower"},
	{Name: "stzd.zero_copy_served", Unit: "count", Better: "higher"},
	{Name: "stzd.store_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "stzd.forward_frac", Unit: "frac", Better: "lower"},
	{Name: "stzd.forward_hop_ms", Unit: "ms", Better: "lower"},
	{Name: "stzd.failovers", Unit: "count", Better: "lower"},
	{Name: "stzd.admission_rejects", Unit: "count", Better: "lower"},
	{Name: "stzd.read_bytes_per_voxel", Unit: "B", Better: "lower"},
	{Name: "stzd.section_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "stzd.miss_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "stzd.read_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "stzd.hit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "stzd.miss_p99_ms", Unit: "ms", Better: "lower"},
	// stzd, write path: serve-ingest.
	{Name: "stzd.put_replica_ok_frac", Unit: "frac", Better: "higher"},
	{Name: "stzd.quorum_fails", Unit: "count", Better: "lower"},
	{Name: "stzd.hints_queued", Unit: "count", Better: "lower"},
	{Name: "stzd.ae_rounds", Unit: "count", Better: "higher"},
	{Name: "stzd.put_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "stzd.put_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "stzd.http_compress_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "stzd.http_decompress_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "stzd.read_during_ingest_p50_ms", Unit: "ms", Better: "lower"},
	// The benchmark's own layer: serve-read and serve-ingest.
	{Name: "loadgen.step1_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.step2_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.step3_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.achieved_rate_frac", Unit: "frac", Better: "higher"},
	{Name: "loadgen.backlog_growth_ms", Unit: "ms", Better: "lower"},
	{Name: "client.ttfb_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.body_p50_ms", Unit: "ms", Better: "lower"},
	// Process-wide: every workload.
	{Name: "scratch.pool_hit_frac", Unit: "frac", Better: "higher"},
	{Name: "runtime.alloc_mb_per_op", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "trace.child_cover_frac", Unit: "frac", Better: "higher"},
	{Name: "cpu.core_frac", Unit: "frac", Better: "lower"},
	{Name: "cpu.huffman_frac", Unit: "frac", Better: "lower"},
	{Name: "cpu.sz3_frac", Unit: "frac", Better: "lower"},
	{Name: "cpu.codec_frac", Unit: "frac", Better: "lower"},
	{Name: "cpu.stzd_frac", Unit: "frac", Better: "lower"},
	{Name: "cpu.nethttp_frac", Unit: "frac", Better: "lower"},
	{Name: "cpu.runtime_gc_frac", Unit: "frac", Better: "lower"},
}

// value is one measured metric: the number and how many samples stand
// behind it (0 for counts and exact ratios).
type value struct {
	v float64
	n int
}

// results collects a run's metrics by name; set panics on a name outside
// the tables, which only a bug in this driver can cause.
type results map[string]value

var knownMetric = func() map[string]bool {
	m := map[string]bool{}
	for _, d := range endToEnd {
		m[d.Name] = true
	}
	for _, d := range perLayer {
		m[d.Name] = true
	}
	return m
}()

func (r results) set(name string, v float64, n int) {
	if !knownMetric[name] {
		panic("benchmark: metric " + name + " is not in the tables of metrics.go")
	}
	r[name] = value{v, n}
}
