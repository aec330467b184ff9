// Command stzload is a fixed-rate open-loop load generator for stzd: it
// schedules every request by intended start time (so queueing delay is
// charged to latency — no coordinated omission), drives a mixed
// box/section/compress/decompress/PUT workload, records per-endpoint
// latencies in HDR-style histograms, and emits a window.BENCHMARK_DATA
// document (internal/benchfmt) that cmd/benchdiff validates and compares.
//
//	go run ./cmd/stzload -duration 10s -out soak.json
//	go run ./cmd/stzload -target http://stzd-host:8321 -rate 500 -clients 16
//	GOMEMLIMIT=256MiB GOGC=50 go run ./cmd/stzload   # GC A/B runs
//
// Without -target the generator embeds an in-process stzd (the handler
// cmd/stzd serves), so the Go runtime's own GOMEMLIMIT and GOGC variables
// tune the server too: run the same schedule under different GC regimes
// and diff the tails.
//
// Reported per run and per endpoint (<name>/<op>): p50 as ns/op, then
// p99_ns, p999_ns, max_ns and the p999/p50 inflation ratio; the run
// aggregate adds qps, ok-% and the scratch-arena pool-hit-%. With -runs N
// each value is the minimum over the N schedules. The name is
// StzSuite/<dataset>/<codec>/eb<bound>/w<workers>/soak, so documents from
// different flag sets never collide.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"stz/internal/bench"
	"stz/internal/benchfmt"
	"stz/internal/codec"
	"stz/internal/datasets"
	"stz/internal/grid"
	"stz/internal/rawio"
	"stz/internal/scratch"
	"stz/internal/stzd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stzload: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// options is one soak as the flags describe it.
type options struct {
	dataset, codec string
	eb             float64 // value-range-relative
	workers        int
	chunks         int
	box            [3]int // query window dims (z, y, x)
	rate           float64
	duration       time.Duration
	clients        int
	runs           int
	target         string
	// Where the document goes and what it records.
	out, commit, repoURL string
}

// name is the series name every entry of the document hangs off.
func (o options) name() string {
	return fmt.Sprintf("StzSuite/%s/%s/eb%s/w%d/soak",
		o.dataset, o.codec, strconv.FormatFloat(o.eb, 'g', -1, 64), o.workers)
}

func run(args []string) error {
	o, err := parse(args)
	if err != nil {
		return err
	}
	where := "in-process stzd"
	if o.target != "" {
		where = o.target
	}
	log.Printf("%s: %g req/s x %s x %d runs against %s", o.name(), o.rate, o.duration, o.runs, where)
	start := time.Now()
	res, err := soak(o)
	if err != nil {
		return err
	}
	log.Printf("completed in %s", time.Since(start).Round(time.Millisecond))
	return write(o, res)
}

// parse reads the flags into options.
func parse(args []string) (options, error) {
	fs := flag.NewFlagSet("stzload", flag.ExitOnError)
	var o options
	fs.StringVar(&o.dataset, "dataset", "Nyx-48x40x44-s1001", "self-describing corpus name")
	fs.StringVar(&o.codec, "codec", "sz3", "registry codec")
	fs.Float64Var(&o.eb, "eb", 1e-3, "value-range-relative error bound")
	fs.IntVar(&o.workers, "workers", 2, "codec workers per job on the server")
	fs.IntVar(&o.chunks, "chunks", 4, "encode-time z-slab count of the query archive")
	boxDims := fs.String("box", "16x16x16", "query window dims (ZxYxX)")
	fs.Float64Var(&o.rate, "rate", 200, "offered load in requests/s")
	fs.DurationVar(&o.duration, "duration", 3*time.Second, "schedule length per run")
	fs.IntVar(&o.clients, "clients", 8, "worker-pool size (max in-flight requests)")
	fs.IntVar(&o.runs, "runs", 1, "schedule repetitions; minimum per metric is reported")
	fs.StringVar(&o.target, "target", "", "external stzd base URL (default: in-process server)")
	fs.StringVar(&o.out, "out", "", "output BENCH JSON path (default bench/BENCH_<date>_soak.json)")
	fs.StringVar(&o.commit, "commit", "", "commit id to record (default: git rev-parse HEAD)")
	fs.StringVar(&o.repoURL, "repo", "https://github.com/stz/stz", "repository URL recorded in the document")
	fs.Parse(args)

	if _, err := fmt.Sscanf(*boxDims, "%dx%dx%d", &o.box[0], &o.box[1], &o.box[2]); err != nil {
		return o, fmt.Errorf("-box wants ZxYxX, got %q", *boxDims)
	}
	o.runs = max(o.runs, 1)
	return o, nil
}

// write logs the folded series and writes them as a schema-valid document.
func write(o options, res soakResult) error {
	entries := res.entries(o.name())
	logEntries(entries)
	now := time.Now().UTC()
	doc := benchfmt.NewFile(o.repoURL, benchfmt.Run{
		Commit: benchfmt.Commit{
			Author:    benchfmt.Author{Name: "stzload"},
			Committer: benchfmt.Author{Name: "stzload"},
			ID:        commitID(o.commit),
			Message:   "soak " + o.name(),
			Timestamp: now.Format(time.RFC3339),
		},
		Date:    now.UnixMilli(),
		Tool:    "go",
		Benches: entries,
	})
	if err := doc.Validate(); err != nil {
		return fmt.Errorf("emitted document is not schema-valid: %w", err)
	}

	path := o.out
	if path == "" {
		path = filepath.Join("bench", fmt.Sprintf("BENCH_%s_soak.json", now.Format("2006-01-02")))
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	data, err := benchfmt.MarshalIndent(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s (%d benches)", path, len(doc.Latest()))
	return nil
}

// soakResult is every run of one soak: what the document folds.
type soakResult struct {
	runs []bench.LoadResult
	// poolHit is the scratch-arena hit percentage across the whole soak
	// (encode included), NaN when the arena saw no traffic.
	poolHit float64
}

// soak regenerates the corpus from its self-describing name and runs the
// schedule o.runs times against the target (or an in-process stzd).
func soak(o options) (soakResult, error) {
	gen, dims, seed, err := datasets.ParseName(o.dataset)
	if err != nil {
		return soakResult{}, err
	}
	spec, err := datasets.Lookup(gen)
	if err != nil {
		return soakResult{}, err
	}
	before := scratch.GlobalStats()
	var runs []bench.LoadResult
	if spec.DType == "float32" {
		runs, err = soakT(o, spec.Generate32(dims[0], dims[1], dims[2], seed))
	} else {
		runs, err = soakT(o, spec.Generate64(dims[0], dims[1], dims[2], seed))
	}
	if err != nil {
		return soakResult{}, err
	}
	res := soakResult{runs: runs, poolHit: math.NaN()}
	after := scratch.GlobalStats()
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits+misses > 0 {
		res.poolHit = 100 * float64(hits) / float64(hits+misses)
	}
	return res, nil
}

// soakT seeds two archives and runs the mix. The mix models the service's
// real shape: mostly box reads over a large resident archive, a trickle of
// compress/decompress round trips on a smaller grid, rare PUTs. The two
// sizes — the full corpus for queries, a centred half-size window for the
// compress/decompress/PUT stream — make admission see long and short jobs.
func soakT[T grid.Float](o options, g *grid.Grid[T]) ([]bench.LoadResult, error) {
	mn, mx := g.Range()
	ebAbs := o.eb * (float64(mx) - float64(mn))
	if !(ebAbs > 0) {
		ebAbs = o.eb
	}
	big, err := codec.Encode(o.codec, g, codec.Config{EB: ebAbs, Workers: o.workers, Chunks: o.chunks})
	if err != nil {
		return nil, err
	}
	small := g.ExtractBox(centredBox(g, [3]int{g.Nz/2 + 1, g.Ny/2 + 1, g.Nx/2 + 1}))
	encSmall, err := codec.Encode(o.codec, small, codec.Config{EB: ebAbs, Workers: o.workers, Chunks: 2})
	if err != nil {
		return nil, err
	}
	rawSmall := make([]byte, small.Len()*rawio.ElemSize[T]())
	rawio.PutValues(rawSmall, small.Data)

	base := o.target
	if base == "" {
		ts := stzd.StartTest(stzd.Options{Workers: o.workers, MaxInflight: o.clients})
		defer ts.Close()
		base = ts.URL
	}
	if err := putArchive(base, "soak-big", big); err != nil {
		return nil, err
	}
	if err := putArchive(base, "soak-small", encSmall); err != nil {
		return nil, err
	}
	hdr, err := codec.ParseHeader(big)
	if err != nil {
		return nil, err
	}

	// Request pools are pre-built and cycled by atomic counters, so the op
	// closures stay allocation-light inside the measured window.
	rng := rand.New(rand.NewSource(1))
	boxes := make([]target, 32)
	for i := range boxes {
		boxes[i] = window(rng, g, o.box, base+"/v1/archives/soak-big")
	}
	sections := make([]target, hdr.Chunks())
	for i := range sections {
		sections[i].url = fmt.Sprintf("%s/v1/archives/soak-big/box?box=%d:%d,0:%d,0:%d",
			base, hdr.ChunkBounds[i], hdr.ChunkBounds[i+1], hdr.Ny, hdr.Nx)
	}
	dtype := "f32"
	if rawio.ElemSize[T]() == 8 {
		dtype = "f64"
	}
	compressURL := fmt.Sprintf("%s/v1/compress?codec=%s&dims=%dx%dx%d&dtype=%s&eb=%s&chunks=2",
		base, o.codec, small.Nz, small.Ny, small.Nx, dtype, strconv.FormatFloat(ebAbs, 'g', -1, 64))

	var boxI, secI, putI atomic.Int64
	ops := []bench.LoadOp{ // box: cache + decode path; section: slab-aligned, zero-copy; put: store churn
		{Name: "box", Weight: 5, Do: func() error { return fetchBox(boxes[boxI.Add(1)%int64(len(boxes))], false) }},
		{Name: "section", Weight: 2, Do: func() error { return fetchBox(sections[secI.Add(1)%int64(len(sections))], true) }},
		{Name: "decomp", Weight: 2, Do: func() error { return post(base+"/v1/decompress", encSmall) }},
		{Name: "compress", Weight: 1, Do: func() error { return post(compressURL, rawSmall) }},
		{Name: "put", Weight: 1, Do: func() error {
			return putArchive(base, fmt.Sprintf("soak-put-%d", putI.Add(1)%4), encSmall)
		}},
	}
	var runs []bench.LoadResult
	for run := 0; run < o.runs; run++ {
		res := bench.RunLoad(bench.LoadSpec{Rate: o.rate, Duration: o.duration,
			Clients: o.clients, Seed: int64(run + 1), Ops: ops})
		if res.Total.Errors == res.Total.Count {
			return nil, fmt.Errorf("soak: every request failed (server misconfigured?)")
		}
		runs = append(runs, res)
	}
	return runs, nil
}

// entries flattens the runs into the benchfmt series shape: the run
// aggregate under name, then one <name>/<op> series per
// endpoint that saw traffic. The plain name carries ns/op and every other
// unit gets the " - <unit>" suffix github-action-benchmark uses. Each value
// is the minimum over the runs: for timings the least-noise run.
func (s soakResult) entries(name string) []benchfmt.Entry {
	var out []benchfmt.Entry
	at := map[string]int{}
	for _, l := range s.runs {
		es := latency(name, l.Total)
		es = append(es,
			benchfmt.Entry{Name: name + " - qps", Value: float64(l.Total.Count) / l.Elapsed.Seconds(), Unit: "qps"},
			benchfmt.Entry{Name: name + " - ok-%", Unit: "ok-%",
				Value: 100 * float64(l.Total.Count-l.Total.Errors) / float64(l.Total.Count)})
		if !math.IsNaN(s.poolHit) {
			es = append(es, benchfmt.Entry{Name: name + " - pool-hit-%", Value: s.poolHit, Unit: "pool-hit-%"})
		}
		for _, op := range l.Ops {
			if op.Count > 0 {
				es = append(es, latency(name+"/"+op.Name, op)...)
			}
		}
		for _, e := range es {
			if i, ok := at[e.Name]; ok {
				out[i].Value = min(out[i].Value, e.Value)
				continue
			}
			if e.Unit == "ns/op" {
				e.Extra = fmt.Sprintf("min of %d runs", len(s.runs))
			}
			at[e.Name] = len(out)
			out = append(out, e)
		}
	}
	return out
}

// latency is one result's open-loop quantiles: p50 as ns/op, then the tail.
func latency(name string, r bench.OpResult) []benchfmt.Entry {
	p50, p999 := float64(r.Latency.Quantile(0.50)), float64(r.Latency.Quantile(0.999))
	es := []benchfmt.Entry{
		{Name: name, Value: p50, Unit: "ns/op"},
		{Name: name + " - p99_ns", Value: float64(r.Latency.Quantile(0.99)), Unit: "p99_ns"},
		{Name: name + " - p999_ns", Value: p999, Unit: "p999_ns"},
		{Name: name + " - max_ns", Value: float64(r.Latency.Max()), Unit: "max_ns"},
	}
	if p50 > 0 {
		es = append(es, benchfmt.Entry{Name: name + " - p999/p50", Value: p999 / p50, Unit: "p999/p50"})
	}
	return es
}

// logEntries prints one line per series: p50, the tail, and the aggregate's
// success rate and throughput.
func logEntries(es []benchfmt.Entry) {
	var line []string
	flush := func() {
		if len(line) > 0 {
			log.Print("  " + strings.Join(line, "  "))
		}
	}
	for _, e := range es {
		switch e.Unit {
		case "ns/op":
			flush()
			line = []string{fmt.Sprintf("%-60s p50 %s", e.Name, time.Duration(e.Value).Round(time.Microsecond))}
		case "p99_ns", "p999_ns", "max_ns":
			line = append(line, fmt.Sprintf("%s %s", strings.TrimSuffix(e.Unit, "_ns"),
				time.Duration(e.Value).Round(time.Microsecond)))
		case "ok-%":
			line = append(line, fmt.Sprintf("ok %.1f%%", e.Value))
		case "qps":
			line = append(line, fmt.Sprintf("%.0f qps", e.Value))
		}
	}
	flush()
}

// target is one box query URL and its payload size.
type target struct {
	url   string
	bytes int64
}

// centredBox places the requested window (clipped to the grid) at the
// grid's centre, where every generator puts interesting structure.
func centredBox[T grid.Float](g *grid.Grid[T], want [3]int) grid.Box {
	bz, by, bx := min(want[0], g.Nz), min(want[1], g.Ny), min(want[2], g.Nx)
	z0, y0, x0 := (g.Nz-bz)/2, (g.Ny-by)/2, (g.Nx-bx)/2
	return grid.Box{Z0: z0, Z1: z0 + bz, Y0: y0, Y1: y0 + by, X0: x0, X1: x0 + bx}
}

// window places a query window of dims want (clipped to the grid) at a
// random offset inside the archive at archiveURL.
func window[T grid.Float](rng *rand.Rand, g *grid.Grid[T], want [3]int, archiveURL string) target {
	bz, by, bx := min(want[0], g.Nz), min(want[1], g.Ny), min(want[2], g.Nx)
	z0, y0, x0 := rng.Intn(g.Nz-bz+1), rng.Intn(g.Ny-by+1), rng.Intn(g.Nx-bx+1)
	return target{
		url:   fmt.Sprintf("%s/box?box=%d:%d,%d:%d,%d:%d", archiveURL, z0, z0+bz, y0, y0+by, x0, x0+bx),
		bytes: int64(bz*by*bx) * int64(rawio.ElemSize[T]()),
	}
}

// putArchive stores an archive under id through the node at base.
func putArchive(base, id string, archive []byte) error {
	req, err := http.NewRequest(http.MethodPut, base+"/v1/archives/"+id, bytes.NewReader(archive))
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body) // error detail only; the status decides
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("PUT %s: status %d: %s", id, resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// post sends body and requires a 200, draining the answer.
func post(url string, body []byte) error {
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return nil
}

// fetchBox issues one box query and requires a 200 of the target's payload
// size — or, with section set, the negotiated zero-copy section form.
func fetchBox(t target, section bool) error {
	req, err := http.NewRequest(http.MethodGet, t.url, nil)
	if err != nil {
		return err
	}
	if section {
		req.Header.Set("Accept", stzd.SectionContentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	n, err := io.Copy(io.Discard, resp.Body)
	switch {
	case err != nil:
		return err
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("box query %s: status %d", t.url, resp.StatusCode)
	case section && resp.Header.Get("X-Stz-Zero-Copy") != "1":
		return fmt.Errorf("box query %s: not served zero-copy", t.url)
	case !section && n != t.bytes:
		return fmt.Errorf("box query %s: %d payload bytes, want %d", t.url, n, t.bytes)
	}
	return nil
}

// commitID resolves the commit recorded in the document: the -commit
// flag, then git HEAD, then "unknown".
func commitID(flagVal string) string {
	if flagVal != "" {
		return flagVal
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	if id := strings.TrimSpace(string(out)); id != "" {
		return id
	}
	return "unknown"
}
