package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"time"

	"stz/internal/codec"
	"stz/internal/grid"
	"stz/internal/stzd"
)

// Request kinds of the two traffic mixes.
const (
	kHot        = iota // zipf draw from the hot boxes: fits the box cache
	kCold              // uniform-random box: the cold set dwarfs the cache
	kSection           // slab-aligned read negotiated as application/x-stz-section
	kPut               // PUT of a full archive, quorum fan-out
	kCompress          // POST /v1/compress of the raw grid
	kDecompress        // POST /v1/decompress of its archive
	kIngestRead        // hot box of an id the PUTs keep replacing
	numKinds
)

var kindNames = [numKinds]string{"hot", "cold", "section", "put", "compress", "decompress", "ingest_read"}

// readMix is 70 % hot, 20 % cold, 10 % sections; ingestMix is 5 PUT : 2
// compress : 2 decompress : 1 hot read: requests of each kind per deck of ten.
var (
	readMix   = [numKinds]int{kHot: 7, kCold: 2, kSection: 1}
	ingestMix = [numKinds]int{kPut: 5, kCompress: 2, kDecompress: 2, kIngestRead: 1}
)

// check is a sampled read body kept for byte-comparison with a local
// decode after the stage, so the decode never sits on a connection.
type check struct {
	arch int
	box  grid.Box
	body []byte
}

// serve is the cluster side of a run: the in-process stzd nodes, one HTTP
// client per connection, and the state the request functions share.
type serve struct {
	r       *run
	tc      *stzd.TestCluster
	clients []*http.Client
	bufs    []*bytes.Buffer
	rawBack []byte // local decode of Inputs.RawArch: what /v1/decompress must return

	mu       sync.Mutex
	checks   []check
	putSeq   int
	putLock  []sync.Mutex // one PUT per id in flight, so "last written" is well defined
	putLast  []int        // per id: Arch index of the last acknowledged body, −1 before any
	putNode  []int        // per id: node that coordinated it
	replOK   int64        // replica legs acknowledged / attempted, over all PUTs
	replAll  int64
	gateMsgs []string
}

func putID(i int) string { return fmt.Sprintf("bench-p%d", i) }

func startServe(r *run) (*serve, error) {
	p := r.p
	s := &serve{r: r,
		putLock: make([]sync.Mutex, p.PutIDs), putLast: make([]int, p.PutIDs), putNode: make([]int, p.PutIDs)}
	back, err := codec.Decode[float32](r.in.RawArch, 1)
	if err != nil {
		return nil, err
	}
	s.rawBack = f32bytes(back.Data)
	s.tc = stzd.StartTestCluster(p.Nodes, stzd.Options{
		Replicas: p.Replicas, Workers: p.NodeWorkers, MaxInflight: p.MaxInflight,
		BoxCacheBudget:      p.BoxCacheBudget,
		AntiEntropyInterval: time.Duration(p.AntiEntropySecs * float64(time.Second)),
	})
	for c := 0; c < p.Conns; c++ {
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, DisableCompression: true}})
		s.bufs = append(s.bufs, new(bytes.Buffer))
	}
	return s, nil
}

func (s *serve) close() {
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.tc.Close()
}

func boxQuery(b grid.Box) string {
	return fmt.Sprintf("box=%d:%d,%d:%d,%d:%d", b.Z0, b.Z1, b.Y0, b.Y1, b.X0, b.X1)
}

// target resolves a job to its archive, window and (for reads) the local
// decoder its body is checked against.
func (s *serve) target(j job) (id string, arch int, b grid.Box) {
	in, p := s.r.in, s.r.p
	switch j.kind {
	case kHot:
		h := in.HotBox[j.arg]
		return archiveID(h.arch), h.arch, h.box
	case kCold:
		return archiveID(j.arg), j.arg, in.coldBox(rand.New(rand.NewSource(j.rnd)))
	case kSection:
		arch := int(j.rnd % numArchives)
		return archiveID(arch), arch, grid.Box{Z0: in.Bounds[j.arg], Z1: in.Bounds[j.arg+1], Y1: p.Dim, X1: p.Dim}
	case kIngestRead:
		return putID(j.arg % p.PutIDs), -1, in.HotBox[0].box
	}
	return putID(j.arg % p.PutIDs), putArch(p, j.arg), grid.Box{}
}

// putArch is the Arch index of the body PUT number seq sends. Bodies
// alternate, per id, between the two fields' archives at the workload's
// bound: different content, so "the last body written" can be told apart.
// Arch[0] is encoded from the pinned field and is the same bytes on every
// seed; put_ms is made of its PUTs.
func putArch(p Params, seq int) int { return 2 * ((seq/p.PutIDs + seq) % 2) }

// do issues one request on connection conn and classifies the response.
func (s *serve) do(conn int, j job) outcome {
	in, p := s.r.in, s.r.p
	base := s.tc.URL(j.node)
	id, arch, box := s.target(j)
	var req *http.Request
	switch j.kind {
	case kHot, kCold, kSection, kIngestRead:
		req, _ = http.NewRequest(http.MethodGet, base+"/v1/archives/"+id+"/box?"+boxQuery(box), nil)
		if j.kind == kSection {
			req.Header.Set("Accept", stzd.SectionContentType)
		}
	case kPut:
		s.putLock[j.arg%p.PutIDs].Lock()
		defer s.putLock[j.arg%p.PutIDs].Unlock()
		req, _ = http.NewRequest(http.MethodPut, base+"/v1/archives/"+id, bytes.NewReader(in.Arch[arch]))
	case kCompress:
		url := fmt.Sprintf("%s/v1/compress?codec=sz3&dims=%dx%dx%d&dtype=f32&chunks=2&eb=%s", base,
			p.RawDim, p.RawDim, p.RawDim, strconv.FormatFloat(in.EB[0], 'g', -1, 64))
		req, _ = http.NewRequest(http.MethodPost, url, bytes.NewReader(in.Raw))
	case kDecompress:
		req, _ = http.NewRequest(http.MethodPost, base+"/v1/decompress", bytes.NewReader(in.RawArch))
	}

	var tGet, tGot, tFirst time.Time
	if s.r.tr != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GetConn:              func(string) { tGet = time.Now() },
			GotConn:              func(httptrace.GotConnInfo) { tGot = time.Now() },
			GotFirstResponseByte: func() { tFirst = time.Now() },
		}))
	}
	t0 := time.Now()
	resp, err := s.clients[conn].Do(req)
	if err != nil {
		return outcome{err: err}
	}
	buf := s.bufs[conn]
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	out := outcome{err: err}
	if s.r.tr != nil && !tFirst.IsZero() {
		op := s.r.tr.NewOp()
		root := s.r.tr.Add(0, op, "client.request", t0, t1)
		s.r.tr.Add(root, op, "client.wait_conn", tGet, tGot)
		s.r.tr.Add(root, op, "client.ttfb", tGot, tFirst)
		s.r.tr.Add(root, op, "client.body", tFirst, t1)
		out.ttfb, out.body = ms(tFirst.Sub(tGot)), ms(t1.Sub(tFirst))
	}
	if err != nil {
		return out
	}
	body := buf.Bytes()
	h := resp.Header
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		out.rejected = resp.StatusCode == http.StatusServiceUnavailable
		out.err = fmt.Errorf("%s %s: status %d: %.120s", req.Method, req.URL.Path, resp.StatusCode, body)
		return out
	}
	out.cache = h.Get("X-Stz-Cache")
	out.local = h.Get(stzd.ServedByHeader) == s.tc.Addrs[j.node]
	out.readB, _ = strconv.ParseInt(h.Get("X-Stz-Read-Bytes"), 10, 64)

	switch j.kind {
	case kHot, kCold, kIngestRead:
		if len(body) != 4*box.Volume() {
			return s.gateFail(out, "%s box %v: body is %d bytes, want %d", id, box, len(body), 4*box.Volume())
		}
		if j.kind != kIngestRead && j.rnd%int64(p.SampleEvery) == 0 {
			s.mu.Lock()
			s.checks = append(s.checks, check{arch, box, append([]byte(nil), body...)})
			s.mu.Unlock()
		}
	case kSection:
		if h.Get("X-Stz-Zero-Copy") != "1" {
			return s.gateFail(out, "%s slab %d: not served zero-copy", id, j.arg)
		}
	case kPut:
		var doc struct {
			Replicas []struct {
				OK bool `json:"ok"`
			} `json:"replicas"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			return s.gateFail(out, "PUT %s: response is not JSON: %v", id, err)
		}
		ok := 0
		for _, rp := range doc.Replicas {
			if rp.OK {
				ok++
			}
		}
		s.mu.Lock()
		s.replOK += int64(ok)
		s.replAll += int64(len(doc.Replicas))
		s.putLast[j.arg%p.PutIDs], s.putNode[j.arg%p.PutIDs] = arch, j.node
		s.mu.Unlock()
		if ok < p.Replicas/2+1 {
			return s.gateFail(out, "PUT %s: %d of %d replicas ok, below quorum", id, ok, len(doc.Replicas))
		}
	case kCompress:
		if !bytes.Equal(body, in.RawArch) {
			return s.gateFail(out, "/v1/compress: archive differs from codec.Encode of the same grid")
		}
	case kDecompress:
		if !bytes.Equal(body, s.rawBack) {
			return s.gateFail(out, "/v1/decompress: body differs from the local decode")
		}
	}
	return out
}

func (s *serve) gateFail(out outcome, format string, a ...any) outcome {
	out.err = fmt.Errorf(format, a...)
	s.mu.Lock()
	s.gateMsgs = append(s.gateMsgs, out.err.Error())
	s.mu.Unlock()
	return out
}

// verify runs the deferred gates: the sampled read bodies against a local
// codec.ReaderAt decode and, when PUTs ran, every replaced id read back
// through a node that did not coordinate its last write.
func (s *serve) verify() {
	r := s.r
	for _, c := range s.checks {
		r.attempted++
		want, err := r.in.Ref[c.arch].DecompressBox(c.box)
		if err != nil || !bytes.Equal(c.body, f32bytes(want.Data)) {
			r.fail("serve-read: %s box %v differs from the local codec.ReaderAt decode (err %v)", archiveID(c.arch), c.box, err)
		}
	}
	s.checks = nil
	for id, arch := range s.putLast {
		if arch < 0 {
			continue
		}
		r.attempted++
		node := (s.putNode[id] + 1) % r.p.Nodes
		out := s.do(0, job{kind: kIngestRead, node: node, arg: id})
		want, err := r.in.Ref[arch].DecompressBox(r.in.HotBox[0].box)
		if out.err != nil || err != nil || !bytes.Equal(s.bufs[0].Bytes(), f32bytes(want.Data)) {
			r.fail("serve-ingest: %s read through node %d is not the last body written (err %v)", putID(id), node, out.err)
		}
		s.putLast[id] = -1
	}
	for _, m := range s.gateMsgs { // their requests already count as failed
		r.gate("%s", m)
	}
	s.gateMsgs = nil
}

// dealer deals request kinds from shuffled decks of a mix: every ten
// consecutive requests hold the mix exactly, so two runs differ in order and
// targets, never in how many cold reads or PUTs they sent — the tail
// percentiles sit inside the slowest kind, and its share must not be a draw.
// A stage keeps one dealer for the whole run, so the decks and the seeded
// draws carry on from one round's steps to the next.
type dealer struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	deck  []int
	dealt int
}

func newDealer(mix [numKinds]int, p Params, rng *rand.Rand) *dealer {
	d := &dealer{rng: rng, zipf: rand.NewZipf(rng, p.ZipfS, 1, uint64(p.HotBoxes-1))}
	for kind, count := range mix {
		for c := 0; c < count; c++ {
			d.deck = append(d.deck, kind)
		}
	}
	return d
}

func (d *dealer) kind() int {
	at := d.dealt % len(d.deck)
	if at == 0 {
		d.rng.Shuffle(len(d.deck), func(a, b int) { d.deck[a], d.deck[b] = d.deck[b], d.deck[a] })
	}
	d.dealt++
	return d.deck[at]
}

// schedule lays out n = rate·d requests, due 1/rate apart, their kinds
// dealt by dl.
func (s *serve) schedule(dl *dealer, rate float64, d time.Duration) []job {
	p := s.r.p
	rng := dl.rng
	jobs := make([]job, max(int(rate*d.Seconds()), 1))
	for i := range jobs {
		j := job{due: time.Duration(float64(i) / rate * float64(time.Second)), kind: dl.kind(),
			node: rng.Intn(p.Nodes), rnd: rng.Int63()}
		switch j.kind {
		case kHot:
			j.arg = int(dl.zipf.Uint64())
		case kCold:
			j.arg = rng.Intn(numArchives)
		case kSection:
			j.arg = rng.Intn(p.Chunks)
		case kPut, kIngestRead:
			j.arg = s.putSeq
			if j.kind == kPut {
				s.putSeq++
			}
		}
		jobs[i] = j
	}
	return jobs
}

// warm is the untimed pass of set-up: every archive stored, every hot box
// fetched once so the caches hold it, and one of every other request.
func (s *serve) warm() error {
	in, p := s.r.in, s.r.p
	for i, a := range in.Arch {
		req, _ := http.NewRequest(http.MethodPut, s.tc.URL(i%p.Nodes)+"/v1/archives/"+archiveID(i), bytes.NewReader(a))
		resp, err := s.clients[0].Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("PUT %s: status %d", archiveID(i), resp.StatusCode)
		}
	}
	var jobs []job
	for i := 0; i < p.PutIDs; i++ {
		jobs = append(jobs, job{kind: kPut, node: i % p.Nodes, arg: i})
	}
	s.putSeq = p.PutIDs
	for i := range in.HotBox {
		jobs = append(jobs, job{kind: kHot, node: i % p.Nodes, arg: i, rnd: 1})
	}
	jobs = append(jobs, job{kind: kCold, rnd: 1}, job{kind: kSection, node: 1 % p.Nodes},
		job{kind: kCompress}, job{kind: kDecompress, node: 1 % p.Nodes}, job{kind: kIngestRead})
	for i, j := range jobs {
		if out := s.do(i%p.Conns, j); out.err != nil {
			return fmt.Errorf("warm-up %s: %w", kindNames[j.kind], out.err)
		}
	}
	s.checks = nil
	for i := range s.putLast {
		s.putLast[i] = -1
	}
	return nil
}

// nodeStats is the sum over the nodes of the /v1/stats counters the
// per-layer stzd metrics are deltas of.
type nodeStats struct {
	BoxHits, BoxMisses, BoxEvictions, BoxDecodes float64
	ZeroCopy, StoreHits, StoreMisses             float64
	Forwarded, Failovers, QuorumFails            float64
	HintsQueued, AERounds                        float64
}

func (s *serve) stats() (nodeStats, error) {
	var sum nodeStats
	for i := range s.tc.Servers {
		resp, err := s.clients[0].Get(s.tc.URL(i) + "/v1/stats")
		if err != nil {
			return sum, err
		}
		var doc struct {
			Archives struct{ Hits, Misses float64 }
			BoxCache struct{ Hits, Misses, Evictions, Decodes float64 } `json:"box_cache"`
			ZeroCopy struct{ Served float64 }                           `json:"zero_copy"`
			Cluster  struct {
				Forwarded, Failovers float64
				QuorumFails          float64 `json:"quorum_fails"`
			}
			Repair struct {
				Hints       struct{ Queued float64 }
				AntiEntropy struct{ Rounds float64 } `json:"anti_entropy"`
			}
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			return sum, fmt.Errorf("/v1/stats of node %d: %w", i, err)
		}
		sum.BoxHits += doc.BoxCache.Hits
		sum.BoxMisses += doc.BoxCache.Misses
		sum.BoxEvictions += doc.BoxCache.Evictions
		sum.BoxDecodes += doc.BoxCache.Decodes
		sum.ZeroCopy += doc.ZeroCopy.Served
		sum.StoreHits += doc.Archives.Hits
		sum.StoreMisses += doc.Archives.Misses
		sum.Forwarded += doc.Cluster.Forwarded
		sum.Failovers += doc.Cluster.Failovers
		sum.QuorumFails += doc.Cluster.QuorumFails
		sum.HintsQueued += doc.Repair.Hints.Queued
		sum.AERounds += doc.Repair.AntiEntropy.Rounds
	}
	return sum, nil
}

func (a nodeStats) sub(b nodeStats) nodeStats {
	return nodeStats{a.BoxHits - b.BoxHits, a.BoxMisses - b.BoxMisses, a.BoxEvictions - b.BoxEvictions,
		a.BoxDecodes - b.BoxDecodes, a.ZeroCopy - b.ZeroCopy, a.StoreHits - b.StoreHits,
		a.StoreMisses - b.StoreMisses, a.Forwarded - b.Forwarded, a.Failovers - b.Failovers,
		a.QuorumFails - b.QuorumFails, a.HintsQueued - b.HintsQueued, a.AERounds - b.AERounds}
}

// ladder is one stage's three open-loop steps. The stage's time is dealt
// out in rounds (see env.pass): every round runs a slice of each step and
// appends its records, so a step's records cover the whole window.
type ladder struct {
	rates  [3]float64
	limit  float64
	dealer *dealer
	steps  [3]stepVerdict
	recs   [3][]rec
	cuts   [3][]int // per step: len(recs) at the end of each round
	before nodeStats
	delta  nodeStats // /v1/stats movement from startLadder to finishLadder
}

// stepShare splits a serve stage between L1, L2 and L3: the reported
// latencies are L2's, so it gets most of it, a slice in every round. L1 and
// L3 only feed the verdicts, whose limits are far off but which need a
// stretch of sustained rate to mean anything: each runs in every fourth
// round, four slices long.
var (
	stepShare = [3]float64{0.1, 0.8, 0.1}
	stepEvery = [3]int{4, 1, 4}
	stepAt    = [3]int{1, 0, 3}
)

func (s *serve) startLadder(stage int) (*ladder, error) {
	p := s.r.p
	l := &ladder{rates: p.ReadLadder, limit: p.ReadLimitMs}
	mix := readMix
	if stage == stageIngest {
		mix, l.rates, l.limit = ingestMix, p.IngestLadder, p.IngestLimitMs
	}
	l.dealer = newDealer(mix, p, rand.New(rand.NewSource(s.r.in.Seed*15485863+int64(stage))))
	var err error
	l.before, err = s.stats()
	return l, err
}

// round drives the stage's part of round i, d being the stage's time per
// round: the mix at each frozen rate whose turn it is.
func (s *serve) round(l *ladder, i int, d time.Duration) {
	for step, rate := range l.rates {
		if i%stepEvery[step] != stepAt[step] {
			continue
		}
		jobs := s.schedule(l.dealer, rate, time.Duration(stepShare[step]*float64(stepEvery[step])*float64(d)))
		l.recs[step] = append(l.recs[step], runOpenLoop(jobs, s.r.p.Conns, s.do)...)
		l.cuts[step] = append(l.cuts[step], len(l.recs[step]))
	}
}

// finishLadder judges the steps and runs the deferred gates.
func (s *serve) finishLadder(l *ladder) error {
	after, err := s.stats()
	if err != nil {
		return err
	}
	l.delta = after.sub(l.before)
	for i, rate := range l.rates {
		l.steps[i] = judgeStep(l.recs[i], l.cuts[i], rate, l.limit)
		s.r.attempted += int64(l.steps[i].attempted)
		s.r.failed += int64(l.steps[i].failed)
	}
	s.verify()
	return nil
}

// maxRate is the highest rate of the ladder whose step passed.
func (l *ladder) maxRate() float64 {
	var top float64
	for _, v := range l.steps {
		if v.pass {
			top = max(top, v.rate)
		}
	}
	return top
}

// lats collects the open-loop latencies of step's successful requests that
// keep returns true for.
func (l *ladder) lats(step int, keep func(rec) bool) []float64 {
	var out []float64
	for _, r := range l.recs[step] {
		if r.ok && keep(r) {
			out = append(out, r.lat)
		}
	}
	return out
}
