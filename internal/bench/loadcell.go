package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"stz/internal/codec"
	"stz/internal/faultinject"
	"stz/internal/grid"
	"stz/internal/parallel"
	"stz/internal/rawio"
	"stz/internal/retry"
	"stz/internal/stzd"
)

// The service-tier workloads — cluster, chaos, recovery, soak — are rows
// of one table (loadCells) run by one harness (runLoadCell), which owns
// every step they share: encode the corpus, stand up the nodes, PUT the
// seed archives, build the zipfian window population, drive the client
// pool, scrape counter deltas. A row is its cluster shape plus the code
// only it needs: lifecycle and metrics (docs/BENCHMARKS.md defines them).

// cellSpec is one row of the load-cell table.
type cellSpec[T grid.Float] struct {
	nodes int          // 1: a plain stzd without a ring, or Cell.Target
	opts  stzd.Options // the harness adds Workers and MaxInflight
	// fault, when set, is injected on every other node's path to node 0 once
	// the archives are seeded.
	fault faultinject.Fault
	// Seed archives, all PUT via node 0: non-owned ids take the forwarded path.
	archives int
	idFmt    string // over (dataset, index)
	pinned   bool   // only ids whose primary replica is node 0
	// outsider addresses every read to the node outside its id's owner set,
	// so each one is forwarded and walks the owners from the primary.
	outsider bool
	// Query windows per archive, queries per run, clients (0: Cell.Clients).
	windows, queries, clients int
	counters                  [][2]string // /v1/stats (section, key) for counterDeltas
	// run is one measured run; a row with one-time setup returns it from prepare.
	run     runFunc[T]
	prepare func(fx *loadFixture[T]) (runFunc[T], error)
}

type runFunc[T grid.Float] func(fx *loadFixture[T], run int, agg *cellAgg) error

// failoverRetry: read failover in milliseconds, not the defaults' seconds.
var failoverRetry = retry.Policy{MaxAttempts: 4, BaseDelay: 2 * time.Millisecond,
	MaxDelay: 20 * time.Millisecond, Budget: 2 * time.Second}

func loadCells[T grid.Float]() map[string]cellSpec[T] {
	return map[string]cellSpec[T]{
		// A zipfian box-query mix through a 3-node ring: every query targets
		// a random node, so about 2/3 are forwarded to the ring owner.
		WorkloadCluster: {
			nodes: 3, archives: 6, idFmt: "%s-a%d",
			windows: 48, queries: 600, clients: 8,
			counters: [][2]string{{"box_cache", "decodes"}, {"cluster", "forwarded"}}, run: runCluster[T],
		},
		// The same mix at R=2 with the path to node 0, every archive's
		// primary, at a 50% fault rate. Every read lands on the one node
		// that owns no copy, so it crosses the faulty path first and
		// constantly fails over (an owner would serve its own copy).
		WorkloadChaos: {
			nodes: 3, archives: 6, idFmt: "%s-chaos%d", pinned: true, outsider: true,
			windows: 32, queries: 600, clients: 8,
			opts: stzd.Options{Replicas: 2, PeerRetry: failoverRetry,
				BreakerThreshold: 4, BreakerCooldown: 250 * time.Millisecond},
			fault:    faultinject.Fault{ConnectErr: 0.25, ServerErr: 0.15, Truncate: 0.1},
			counters: [][2]string{{"cluster", "failovers"}}, run: runChaos[T],
		},
		// A node outage and revival at R=3: every node owns every archive
		// and quorum 2 tolerates the outage.
		WorkloadRecovery: {
			nodes: 3, archives: 4, idFmt: "%s-rec%d",
			windows: 16, queries: 240, clients: 6,
			opts: stzd.Options{Replicas: 3, PeerRetry: failoverRetry,
				BreakerThreshold: 2, BreakerCooldown: 150 * time.Millisecond,
				HintRetryInterval: 50 * time.Millisecond, AntiEntropyInterval: 200 * time.Millisecond},
			run: runRecovery[T],
		},
		// Mixed traffic against one stzd, open-loop, admission as wide as the pool.
		WorkloadSoak: {nodes: 1, prepare: prepareSoak[T]},
	}
}

// loadFixture is the running state of one load cell.
type loadFixture[T grid.Float] struct {
	c     Cell
	spec  cellSpec[T]
	g     *grid.Grid[T]
	ebAbs float64
	enc   []byte            // the corpus, encoded with the cell's codec
	cl    *stzd.TestCluster // nil on a single node
	bases []string          // node base URLs
	ids   []string          // seed archive ids
	rng   *rand.Rand        // seeded from the cell name
	pop   []target          // shuffled (archive, window) population
	zipf  *rand.Zipf        // popularity rank over pop
	last  []float64         // counters at the previous scrape
	subs  []*cellAgg        // per-endpoint sub-results a row may add
}

// target is one box query: URL (or path under a base URL) and payload size.
type target struct {
	url   string
	bytes int64
	node  int // in an outsider row, the node the query is addressed to
}

// runLoadCell runs one service-tier cell; counters and caches are cumulative
// across its runs, so each run observes its own delta.
func runLoadCell[T grid.Float](c Cell, g *grid.Grid[T], runs int, agg *cellAgg) ([]CellResult, error) {
	spec, ok := loadCells[T]()[c.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", c.Workload)
	}
	if spec.clients == 0 {
		spec.clients = c.Clients
	}
	ebAbs, enc, err := encodeCell(c, g)
	if err != nil {
		return nil, err
	}
	fx := &loadFixture[T]{c: c, spec: spec, g: g, ebAbs: ebAbs, enc: enc, last: make([]float64, len(spec.counters))}
	opts := spec.opts
	opts.Workers, opts.MaxInflight = c.Workers, spec.clients
	var fis []*faultinject.Transport
	switch {
	case c.Target != "":
		fx.bases = []string{c.Target}
	case spec.nodes == 1:
		ts := stzd.StartTest(opts)
		defer ts.Close()
		fx.bases = []string{ts.URL}
	default:
		var tweak func(i int, addrs []string, no *stzd.Options)
		if spec.fault != (faultinject.Fault{}) {
			fis = make([]*faultinject.Transport, spec.nodes)
			tweak = func(i int, _ []string, no *stzd.Options) {
				no.WrapTransport = func(rt http.RoundTripper) http.RoundTripper {
					fis[i] = faultinject.New(rt, int64(4000+i))
					return fis[i]
				}
			}
		}
		fx.cl = stzd.StartTestClusterOpts(spec.nodes, opts, tweak)
		defer fx.cl.Close()
		for i := range fx.cl.Servers {
			fx.bases = append(fx.bases, fx.cl.URL(i))
		}
	}

	for i := 0; len(fx.ids) < spec.archives; i++ {
		if i >= 10000 {
			return nil, fmt.Errorf("no %d ids of 10000 primary on node 0", spec.archives)
		}
		id := fmt.Sprintf(spec.idFmt, c.Dataset, i)
		if spec.pinned && fx.cl.Owner(id) != 0 {
			continue
		}
		if err := putArchive(fx.bases[0], id, fx.enc); err != nil {
			return nil, err
		}
		fx.ids = append(fx.ids, id)
	}
	for i := 1; i < len(fis); i++ {
		fis[i].Set(fx.cl.Addrs[0], spec.fault)
	}
	if spec.windows > 0 {
		fx.populate()
	}
	if _, err := fx.counterDeltas(); err != nil { // the first run's baseline
		return nil, err
	}
	if spec.prepare != nil {
		if spec.run, err = spec.prepare(fx); err != nil {
			return nil, err
		}
	}
	for run := 0; run < runs; run++ {
		if err := spec.run(fx, run, agg); err != nil {
			return nil, err
		}
	}
	var extra []CellResult
	for _, s := range fx.subs {
		if len(s.units) > 0 {
			extra = append(extra, s.result())
		}
	}
	return extra, nil
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

// window places a query window of the cell's box dims (clipped to the grid)
// at a random offset inside archive id, as a path under a base URL.
func (fx *loadFixture[T]) window(rng *rand.Rand, id string) target {
	g, want := fx.g, fx.c.Box
	bz, by, bx := minInt(want[0], g.Nz), minInt(want[1], g.Ny), minInt(want[2], g.Nx)
	z0, y0, x0 := rng.Intn(g.Nz-bz+1), rng.Intn(g.Ny-by+1), rng.Intn(g.Nx-bx+1)
	url := fmt.Sprintf("/v1/archives/%s/box?box=%d:%d,%d:%d,%d:%d", id, z0, z0+bz, y0, y0+by, x0, x0+bx)
	return target{url: url, bytes: int64(bz*by*bx) * int64(rawio.ElemSize[T]())}
}

// populate builds the query population: (archive, window) pairs, shuffled so
// zipf popularity rank is independent of archive identity, from an RNG seeded
// by the cell name so a cell replays the same queries each time.
func (fx *loadFixture[T]) populate() {
	h := fnv.New32a()
	io.WriteString(h, fx.c.Name)
	fx.rng = rand.New(rand.NewSource(int64(h.Sum32())))
	for _, id := range fx.ids {
		node := 0
		if fx.spec.outsider {
			owners := fx.cl.Owners(id)
			for slices.Contains(owners, node) {
				node++
			}
		}
		for w := 0; w < fx.spec.windows; w++ {
			t := fx.window(fx.rng, id)
			t.node = node
			fx.pop = append(fx.pop, t)
		}
	}
	fx.rng.Shuffle(len(fx.pop), func(i, j int) { fx.pop[i], fx.pop[j] = fx.pop[j], fx.pop[i] })
	fx.zipf = rand.NewZipf(fx.rng, 1.4, 1, uint64(len(fx.pop)-1))
}

// closedLoop draws the run's queries — each a random one of the first nodes
// nodes (an outsider row: the window's own node) and a zipf-ranked window,
// pre-drawn so the timed section is pure serving — and drains them through
// a pool of the row's clients.
func (fx *loadFixture[T]) closedLoop(nodes int, agg *cellAgg) (lat []time.Duration, ok int, err error) {
	queries := make([]target, fx.spec.queries)
	for i := range queries {
		node := fx.rng.Intn(nodes)
		queries[i] = fx.pop[fx.zipf.Uint64()]
		if fx.spec.outsider {
			node = queries[i].node
		}
		queries[i].url = fx.bases[node] + queries[i].url
	}
	lat = make([]time.Duration, len(queries))
	errs := make([]error, len(queries))
	t0 := time.Now()
	parallel.For(len(queries), fx.spec.clients, func(i int) {
		q0 := time.Now()
		errs[i] = fetchBox(queries[i], false)
		lat[i] = time.Since(q0)
	})
	elapsed := time.Since(t0) // the headline pair: per-query ns/op, and qps
	agg.observeNs(elapsed / time.Duration(len(queries)))
	agg.observe("qps", float64(len(queries))/elapsed.Seconds())
	for _, e := range errs {
		if e == nil {
			ok++
		} else if err == nil {
			err = e
		}
	}
	return lat, ok, err
}

// share is n as a percentage of a run's queries.
func (fx *loadFixture[T]) share(n float64) float64 { return 100 * n / float64(fx.spec.queries) }

// getJSON GETs url and decodes the JSON object a 200 carries.
func getJSON(url string) (doc map[string]any, err error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return doc, nil
}

// counterDeltas sums the row's /v1/stats counters across every node and
// reports how far each moved since the previous call.
func (fx *loadFixture[T]) counterDeltas() ([]float64, error) {
	cur := make([]float64, len(fx.spec.counters))
	for _, base := range fx.bases {
		doc, err := getJSON(base + "/v1/stats")
		if err != nil {
			return nil, err
		}
		for i, k := range fx.spec.counters {
			section, _ := doc[k[0]].(map[string]any)
			v, _ := section[k[1]].(float64)
			cur[i] += v
		}
	}
	for i, v := range cur {
		cur[i], fx.last[i] = v-fx.last[i], v
	}
	return cur, nil
}

// runCluster: any failed query fails the cell.
func runCluster[T grid.Float](fx *loadFixture[T], _ int, agg *cellAgg) error {
	if _, _, err := fx.closedLoop(len(fx.bases), agg); err != nil {
		return err
	}
	d, err := fx.counterDeltas()
	if err != nil {
		return err
	}
	agg.observe("hit-%", 100-fx.share(d[0])) // served without a box decode
	agg.observe("fwd-%", fx.share(d[1]))
	return nil
}

// runChaos: failed queries are the measurement (ok-%), not an error.
func runChaos[T grid.Float](fx *loadFixture[T], _ int, agg *cellAgg) error {
	lat, ok, _ := fx.closedLoop(len(fx.bases), agg)
	d, err := fx.counterDeltas()
	if err != nil {
		return err
	}
	agg.observe("ok-%", fx.share(float64(ok)))
	agg.observe("failover-%", fx.share(d[0]))
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if p50 := lat[len(lat)/2]; p50 > 0 {
		agg.observe("p99/p50", float64(lat[len(lat)*99/100])/float64(p50))
	}
	return nil
}

// runRecovery kills the last node, writes on the surviving quorum (queueing
// hints), reads from the survivors, then revives the node with a wiped
// store — the worst case — and times hint replay plus anti-entropy sweeps
// re-converging it.
func runRecovery[T grid.Float](fx *loadFixture[T], run int, agg *cellAgg) error {
	// Past convTimeout the node is scored by converged-%, not waited for.
	const convTimeout, convPoll = 30 * time.Second, 25 * time.Millisecond
	victim := len(fx.bases) - 1 // clients keep using the nodes before it
	fx.cl.Stop(victim)
	for i := 0; i < 2; i++ { // writes during the outage, hinted for the victim
		id := fmt.Sprintf("%s-rec-out%d-%d", fx.c.Dataset, run, i)
		if err := putArchive(fx.bases[i%victim], id, fx.enc); err != nil {
			return err
		}
		fx.ids = append(fx.ids, id) // one more archive the victim owes
	}
	_, ok, _ := fx.closedLoop(victim, agg) // the survivors hold every archive
	if err := fx.cl.Restart(victim); err != nil {
		return err
	}
	t1, present := time.Now(), 0
	for {
		doc, err := getJSON(fx.bases[victim] + "/v1/manifest")
		if err != nil {
			return err
		}
		archives, _ := doc["archives"].(map[string]any)
		present = 0
		for _, id := range fx.ids {
			if _, ok := archives[id]; ok {
				present++
			}
		}
		if present == len(fx.ids) || time.Since(t1) > convTimeout {
			break
		}
		time.Sleep(convPoll)
	}
	agg.observe("ok-%", fx.share(float64(ok)))
	agg.observe("conv-s", time.Since(t1).Seconds())
	agg.observe("converged-%", 100*float64(present)/float64(len(fx.ids)))
	return nil
}

// prepareSoak sets up the open-loop soak (see loadgen.go): p50 latency is
// the ns/op headline (so benchdiff's default gate applies), the tail gates,
// and each endpoint adds a <cell>/<op> sub-result. The mix models the
// service's real shape: mostly box reads over a large resident archive, a
// trickle of compress/decompress round trips on a smaller grid, rare PUTs.
func prepareSoak[T grid.Float](fx *loadFixture[T]) (runFunc[T], error) {
	c, g, base := fx.c, fx.g, fx.bases[0]
	// Two sizes — the full corpus for queries, a centered half-size window for
	// the compress/decompress/PUT stream — so admission sees long and short jobs.
	small := subGrid(g, centeredBox(g, [3]int{g.Nz/2 + 1, g.Ny/2 + 1, g.Nx/2 + 1}))
	encSmall, err := codec.Encode(c.Codec, small, codec.Config{EB: fx.ebAbs, Workers: c.Workers, Chunks: 2})
	if err != nil {
		return nil, err
	}
	rawSmall := make([]byte, small.Len()*rawio.ElemSize[T]())
	rawio.PutValues(rawSmall, small.Data)
	if err := putArchive(base, "soak-big", fx.enc); err != nil {
		return nil, err
	}
	if err := putArchive(base, "soak-small", encSmall); err != nil {
		return nil, err
	}
	hdr, err := codec.ParseHeader(fx.enc)
	if err != nil {
		return nil, err
	}
	// Request pools are pre-built and cycled by atomic counters, so the op
	// closures stay allocation-light inside the measured window.
	rng := rand.New(rand.NewSource(1))
	boxes := make([]target, 32)
	for i := range boxes {
		boxes[i] = fx.window(rng, "soak-big")
		boxes[i].url = base + boxes[i].url
	}
	sections := make([]target, hdr.Chunks())
	for i := range sections {
		sections[i].url = fmt.Sprintf("%s/v1/archives/soak-big/box?box=%d:%d,0:%d,0:%d",
			base, hdr.ChunkBounds[i], hdr.ChunkBounds[i+1], hdr.Ny, hdr.Nx)
	}
	compressURL := fmt.Sprintf("%s/v1/compress?codec=%s&dims=%dx%dx%d&dtype=%s&eb=%s&chunks=2",
		base, c.Codec, small.Nz, small.Ny, small.Nx, dtypeName[T](), strconv.FormatFloat(fx.ebAbs, 'g', -1, 64))

	var boxI, secI, putI atomic.Int64
	status := func(_ []byte, err error) error { return err }
	ops := []LoadOp{ // box: cache + decode path; section: slab-aligned, zero-copy; put: store churn
		{Name: "box", Weight: 5, Do: func() error { return fetchBox(boxes[boxI.Add(1)%int64(len(boxes))], false) }},
		{Name: "section", Weight: 2, Do: func() error { return fetchBox(sections[secI.Add(1)%int64(len(sections))], true) }},
		{Name: "decomp", Weight: 2, Do: func() error { return status(post(base+"/v1/decompress", encSmall)) }},
		{Name: "compress", Weight: 1, Do: func() error { return status(post(compressURL, rawSmall)) }},
		{Name: "put", Weight: 1, Do: func() error {
			return putArchive(base, fmt.Sprintf("soak-put-%d", putI.Add(1)%4), encSmall)
		}},
	}
	for _, op := range ops {
		fx.subs = append(fx.subs, newCellAgg(c.Name+"/"+op.Name))
	}
	return func(fx *loadFixture[T], run int, agg *cellAgg) error {
		res := RunLoad(LoadSpec{Rate: c.Rate, Duration: time.Duration(c.Seconds) * time.Second,
			Clients: c.Clients, Seed: int64(run + 1), Ops: ops})
		if res.Total.Errors == res.Total.Count {
			return fmt.Errorf("soak: every request failed (server misconfigured?)")
		}
		foldLatency(agg, res.Total)
		agg.observe("qps", float64(res.Total.Count)/res.Elapsed.Seconds())
		agg.observe("ok-%", 100*float64(res.Total.Count-res.Total.Errors)/float64(res.Total.Count))
		for i, opRes := range res.Ops {
			if opRes.Count > 0 {
				foldLatency(fx.subs[i], opRes)
			}
		}
		return nil
	}, nil
}

// foldLatency records a run's open-loop quantiles: p50 as ns/op, then the tail.
func foldLatency(a *cellAgg, r OpResult) {
	p50 := r.Latency.Quantile(0.50)
	a.observeNs(time.Duration(p50))
	a.observe("p99_ns", float64(r.Latency.Quantile(0.99)))
	a.observe("p999_ns", float64(r.Latency.Quantile(0.999)))
	a.observe("max_ns", float64(r.Latency.Max()))
	if p50 > 0 {
		a.observe("p999/p50", float64(r.Latency.Quantile(0.999))/float64(p50))
	}
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
