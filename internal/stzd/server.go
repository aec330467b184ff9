// Package stzd implements the stzd HTTP service: streaming
// compress/decompress endpoints and the resident-archive random-access
// query API in front of internal/codec. Command stzd (cmd/stzd) is a thin
// flag wrapper around New; the stzd tests and cmd/stzload embed the same
// handler in-process through StartTest, so every consumer shares one
// construction path.
package stzd

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stz/internal/cluster"
	"stz/internal/codec"
	_ "stz/internal/core" // registers the paper's codec, "stz"
	"stz/internal/grid"
	"stz/internal/health"
	"stz/internal/rawio"
	"stz/internal/repair"
	"stz/internal/retry"
	"stz/internal/scratch"
	"stz/internal/singleflight"
)

// Options configures the service.
type Options struct {
	// MaxBody caps the request body and the decompressed output size, in
	// bytes.
	MaxBody int64
	// MaxInflight bounds concurrently running compression/decompression
	// jobs; excess requests wait briefly, then receive 503.
	MaxInflight int
	// Workers is the per-job codec worker budget.
	Workers int
	// Window is the bounded streaming window (slabs in flight per job);
	// 0 lets the codec layer choose.
	Window int
	// AdmissionWait is how long a request waits for a job slot before 503.
	AdmissionWait time.Duration
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// ArchiveBudget caps the bytes charged by the resident archive store
	// (raw archive bytes, plus the decoded-grid cache ceiling for backends
	// without native sub-box decoding).
	ArchiveBudget int64
	// ArchiveShards is the archive store's shard count; the budget is
	// split evenly across shards.
	ArchiveShards int
	// BoxCacheBudget caps the hot-box result cache (decoded box payloads
	// kept above the slab cache), in bytes. 0 picks the default; negative
	// disables the cache.
	BoxCacheBudget int64
	// Self is this node's advertised host:port in cluster mode. Required
	// when Peers is non-empty; it is added to the ring if absent from
	// Peers.
	Self string
	// Peers is the full static peer topology (host:port each, including
	// Self). Empty means single-node mode: no ring, no forwarding.
	Peers []string
	// Replicas is the replication factor: each archive id is placed on
	// the first Replicas distinct ring owners. Writes fan out to all of
	// them (success = majority quorum), reads fail over along the list.
	// Default 1 (no replication); clamped to the peer count by the ring.
	Replicas int
	// BreakerThreshold is the consecutive-failure count that opens a
	// peer's circuit breaker; 0 uses the health package default (5).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker sheds load before a
	// half-open probe; 0 uses the health package default (5s).
	BreakerCooldown time.Duration
	// PeerRetry is the backoff policy for read failover across replicas.
	// The zero value uses the retry package defaults.
	PeerRetry retry.Policy
	// HintBudget caps the hinted-handoff queue: the bytes of missed
	// writes (bodies plus per-hint overhead) the coordinator holds for
	// down replicas. Default 64 MiB; negative disables hinted handoff.
	HintBudget int64
	// HintRetryInterval is the period of the background hint-replay tick
	// (hints also flush immediately when a peer's breaker closes).
	// Default 1s.
	HintRetryInterval time.Duration
	// AntiEntropyInterval is the period of the background manifest-diff
	// sweep that re-replicates missing or divergent archives. Default
	// 30s; negative disables anti-entropy.
	AntiEntropyInterval time.Duration
	// WrapTransport, when set, wraps the tuned peer transport — the hook
	// the fault-injection tests and the chaos workload use to interpose
	// on peer traffic without touching the serving stack.
	WrapTransport func(http.RoundTripper) http.RoundTripper
}

func (o Options) withDefaults() Options {
	if o.MaxBody <= 0 {
		o.MaxBody = 1 << 30
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.AdmissionWait <= 0 {
		o.AdmissionWait = 100 * time.Millisecond
	}
	if o.ArchiveBudget <= 0 {
		o.ArchiveBudget = 1 << 30
	}
	if o.ArchiveShards <= 0 {
		o.ArchiveShards = 8
	}
	if o.BoxCacheBudget == 0 {
		o.BoxCacheBudget = 256 << 20
	}
	o.Self = normalizeAddr(o.Self)
	for i, p := range o.Peers {
		o.Peers[i] = normalizeAddr(p)
	}
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.HintBudget == 0 {
		o.HintBudget = 64 << 20
	}
	if o.HintRetryInterval <= 0 {
		o.HintRetryInterval = time.Second
	}
	if o.AntiEntropyInterval == 0 {
		o.AntiEntropyInterval = 30 * time.Second
	}
	return o
}

// Server is the stzd request handler: a mux over the v1 endpoints with a
// semaphore-bounded job pool, a resident archive store for the
// random-access query API, and — in cluster mode — a consistent-hash
// ring that routes archive requests to their owning peer.
type Server struct {
	opts  Options
	sem   chan struct{}
	store *archiveStore
	mux   *http.ServeMux

	// Cluster placement, replication, and peer health. ring is nil in
	// single-node mode.
	ring        *cluster.Ring
	peerClient  *http.Client    // shared tuned transport to peers
	health      *health.Tracker // per-peer circuit breakers
	forwarded   atomic.Int64    // requests proxied to a peer (per attempt)
	notOwner    atomic.Int64    // hop-guard rejections (421)
	replicaHits atomic.Int64    // reads served by some replica
	failovers   atomic.Int64    // reads that moved past the walk's first replica
	quorumFails atomic.Int64    // write fan-outs that missed quorum
	allDown     atomic.Int64    // reads with every replica unreachable

	// Self-healing: the hinted-handoff queue, the read-repair dedup, and
	// the anti-entropy sweep (selfheal.go). hints is nil in single-node
	// mode; baseCtx cancels the healing goroutines on Close.
	hints         *repair.Queue
	repairFlights *singleflight.Group[string, bool] // one in-flight repair per id+peer
	readRepairs   atomic.Int64                      // successful read-repair pushes
	aeRounds      atomic.Int64                      // completed anti-entropy sweeps
	aeDivergences atomic.Int64                      // missing/divergent entries found
	aeRepaired    atomic.Int64                      // successful anti-entropy pushes
	baseCtx       context.Context
	cancel        context.CancelFunc
	kick          chan struct{} // nudges the selfheal loop to flush hints now
	closeOnce     sync.Once
	done          chan struct{} // closed when the selfheal loop exits

	// Hot-box tier: single-flight decode dedup plus the result LRU.
	// boxFlights collapses concurrent decodes of the same archive+box to
	// one; boxDecodes counts the decodes that actually ran (the counter
	// the single-flight tests and the cluster workload observe).
	boxFlights *singleflight.Group[string, boxResult]
	boxCache   *boxCache
	boxDecodes atomic.Int64

	// Zero-copy tier: slab-aligned box queries answered with the
	// still-compressed section bytes (no decode, no job slot).
	zeroCopies    atomic.Int64 // responses served zero-copy
	zeroCopyBytes atomic.Int64 // compressed bytes shipped by those responses
}

// New builds the stzd handler: the route table (routes.go) mounted on a
// mux, a semaphore-bounded job pool and a fresh archive store. A
// non-empty o.Peers turns on cluster mode: archive routes are placed on
// their consistent-hash owners (see cluster.go).
func New(o Options) *Server {
	o = o.withDefaults()
	s := &Server{
		opts:       o,
		sem:        make(chan struct{}, o.MaxInflight),
		boxFlights: &singleflight.Group[string, boxResult]{},
		boxCache:   newBoxCache(o.BoxCacheBudget),
	}
	s.store = newArchiveStore(o.ArchiveBudget, o.ArchiveShards, o.Workers)
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.done = make(chan struct{})
	if len(o.Peers) > 0 {
		peers := o.Peers
		if o.Self != "" {
			peers = append(append([]string(nil), peers...), o.Self)
		}
		s.ring = cluster.New(peers)
		s.hints = repair.NewQueue(o.HintBudget)
		s.repairFlights = &singleflight.Group[string, bool]{}
		s.kick = make(chan struct{}, 1)
		s.health = health.NewTracker(health.Options{
			Threshold: o.BreakerThreshold, Cooldown: o.BreakerCooldown,
			// A breaker closing means the peer is back: flush its hints
			// right away instead of waiting for the retry tick.
			OnStateChange: func(_ string, _, to health.State) {
				if to == health.Closed {
					select {
					case s.kick <- struct{}{}:
					default:
					}
				}
			},
		})
		// One tuned transport for all peer traffic: bounded dial and
		// response-header waits so a dead peer fails fast enough to fail
		// over, and warm per-peer connection pools for the fan-out paths.
		var rt http.RoundTripper = &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 2 * time.Second}).DialContext,
			ResponseHeaderTimeout: 10 * time.Second,
			MaxIdleConns:          128,
			MaxIdleConnsPerHost:   32,
			IdleConnTimeout:       90 * time.Second,
		}
		if o.WrapTransport != nil {
			rt = o.WrapTransport(rt)
		}
		s.peerClient = &http.Client{Transport: rt}
	}
	s.mux = http.NewServeMux()
	s.mount()
	if s.ring != nil {
		go s.selfhealLoop()
	} else {
		close(s.done)
	}
	return s
}

// Close stops the self-healing background work (hint replay, anti-
// entropy) and cancels any in-flight repair pushes. The HTTP handler
// itself stays functional — Close concerns only the goroutines the
// server owns, so callers shut down the listener separately.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.cancel()
		<-s.done
	})
}

// acquire claims a job slot, waiting up to AdmissionWait — clamped to
// the request's own context deadline, so a forwarding peer (or any
// client with a deadline) gets the pool_saturated envelope back while
// its deadline still has room to act on the Retry-After, instead of the
// connection being held until the wait expires.
func (s *Server) acquire(r *http.Request) bool {
	select {
	case s.sem <- struct{}{}:
		return true
	default:
	}
	wait := s.opts.AdmissionWait
	if dl, ok := r.Context().Deadline(); ok {
		if until := time.Until(dl); until < wait {
			wait = until
		}
	}
	if wait <= 0 {
		return false
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return true
	case <-t.C:
		return false
	case <-r.Context().Done():
		return false
	}
}

func (s *Server) release() { <-s.sem }

// param reads a request parameter. The precedence rule — the only one,
// applied to every parameter on every endpoint — is: the query-string
// parameter wins; the X-Stz-* header of the same meaning is consulted
// only when the query parameter is absent or empty.
func param(r *http.Request, name, header string) string {
	if v := r.URL.Query().Get(name); v != "" {
		return v
	}
	return r.Header.Get(header)
}

// handleHealth is the liveness probe. In cluster mode it also reports
// degradation: peers whose circuit breakers are currently open. The
// node itself still serves (status stays 200), but "degraded" plus the
// open-circuit list tells operators part of the replica set is down.
func (s *Server) handleHealth(w http.ResponseWriter, _ *call) {
	doc := map[string]any{"status": "ok", "inflight": len(s.sem)}
	if s.health != nil {
		if open := s.health.Open(); len(open) > 0 {
			doc["status"] = "degraded"
			doc["open_circuits"] = open
		}
	}
	if s.hints != nil {
		count, bytes := s.hints.Backlog()
		doc["hint_backlog"] = count
		doc["hint_backlog_bytes"] = bytes
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleStats reports the scratch-arena counters (the memory-reuse health
// of the hot paths) plus the in-flight job count.
func (s *Server) handleStats(w http.ResponseWriter, _ *call) {
	type arenaJSON struct {
		Hits     uint64  `json:"hits"`
		Misses   uint64  `json:"misses"`
		Releases uint64  `json:"releases"`
		Discards uint64  `json:"discards"`
		HitRate  float64 `json:"hit_rate"`
	}
	pools := map[string]arenaJSON{}
	for name, st := range scratch.All() {
		pools[name] = arenaJSON{
			Hits: st.Hits, Misses: st.Misses,
			Releases: st.Releases, Discards: st.Discards,
			HitRate: st.HitRate(),
		}
	}
	g := scratch.GlobalStats()
	entries, archiveBytes := s.store.snapshot()
	stats := map[string]any{
		"inflight":      len(s.sem),
		"max_inflight":  s.opts.MaxInflight,
		"pool_hit_rate": g.HitRate(),
		"pools":         pools,
		"archives": map[string]any{
			"count":     len(entries),
			"bytes":     archiveBytes,
			"budget":    s.store.perShard * int64(len(s.store.shards)),
			"shards":    len(s.store.shards),
			"evictions": s.store.evictions.Load(),
			"hits":      s.store.hits.Load(),
			"misses":    s.store.misses.Load(),
		},
	}
	// The hot-box tier: result-cache hit/miss/evict counters plus the
	// count of box decodes that actually ran — under single-flight, K
	// concurrent queries of a cold box advance decodes by exactly 1.
	box := map[string]any{"enabled": s.boxCache != nil, "decodes": s.boxDecodes.Load()}
	if s.boxCache != nil {
		n, bytes := s.boxCache.snapshot()
		box["count"] = n
		box["bytes"] = bytes
		box["budget"] = s.boxCache.budget
		box["hits"] = s.boxCache.hits.Load()
		box["misses"] = s.boxCache.misses.Load()
		box["evictions"] = s.boxCache.evictions.Load()
	}
	stats["box_cache"] = box
	stats["zero_copy"] = map[string]any{
		"served": s.zeroCopies.Load(),
		"bytes":  s.zeroCopyBytes.Load(),
	}
	if s.ring != nil {
		stats["cluster"] = map[string]any{
			"self":         s.opts.Self,
			"peers":        s.ring.Peers(),
			"replicas":     s.opts.Replicas,
			"forwarded":    s.forwarded.Load(),
			"not_owner":    s.notOwner.Load(),
			"replica_hits": s.replicaHits.Load(),
			"failovers":    s.failovers.Load(),
			"quorum_fails": s.quorumFails.Load(),
			"all_down":     s.allDown.Load(),
			"peer_health":  s.health.Snapshot(),
		}
		// The self-healing tier: hinted-handoff queue counters, read
		// repairs pushed, and the anti-entropy sweep's round/divergence
		// tallies — the convergence health of the replica set.
		stats["repair"] = map[string]any{
			"hints":        s.hints.Stats(),
			"read_repairs": s.readRepairs.Load(),
			"anti_entropy": map[string]any{
				"rounds":      s.aeRounds.Load(),
				"divergences": s.aeDivergences.Load(),
				"repaired":    s.aeRepaired.Load(),
			},
		}
	}
	writeJSON(w, http.StatusOK, stats)
}

func (s *Server) handleCodecs(w http.ResponseWriter, _ *call) {
	type capsJSON struct {
		Name               string `json:"name"`
		ID                 uint8  `json:"id"`
		Progressive        bool   `json:"progressive"`
		RandomAccess       bool   `json:"random_access"`
		ParallelCompress   bool   `json:"parallel_compress"`
		ParallelDecompress bool   `json:"parallel_decompress"`
		Float32            bool   `json:"float32"`
		Float64            bool   `json:"float64"`
	}
	var out []capsJSON
	for _, c := range codec.All() {
		caps := c.Caps()
		out = append(out, capsJSON{
			Name: c.Name(), ID: c.ID(),
			Progressive: caps.Progressive, RandomAccess: caps.RandomAccess,
			ParallelCompress: caps.ParallelCompress, ParallelDecompress: caps.ParallelDecompress,
			Float32: caps.Float32, Float64: caps.Float64,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"codecs": out})
}

// compressParams are the validated inputs of one compress request.
type compressParams struct {
	codecName  string
	nz, ny, nx int
	width      byte // element width, as codec.Header.DType: 4 (f32) or 8 (f64)
	cfg        codec.Config
	rel        bool
	relEB      float64
}

func parseCompressParams(r *http.Request, MaxBody int64) (compressParams, error) {
	var p compressParams
	p.codecName = param(r, "codec", "X-Stz-Codec")
	if p.codecName == "" {
		return p, fmt.Errorf("missing codec parameter")
	}
	dims := param(r, "dims", "X-Stz-Dims")
	if dims == "" {
		return p, fmt.Errorf("missing dims parameter (ZxYxX)")
	}
	parts := strings.Split(dims, "x")
	if len(parts) != 3 {
		return p, fmt.Errorf("dims must be ZxYxX, got %q", dims)
	}
	var d [3]int
	for i, s := range parts {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			return p, fmt.Errorf("bad dimension %q", s)
		}
		d[i] = v
	}
	p.nz, p.ny, p.nx = d[0], d[1], d[2]
	elems, err := codec.CheckDims(p.nz, p.ny, p.nx)
	if err != nil {
		return p, err
	}
	switch param(r, "dtype", "X-Stz-Dtype") {
	case "", "f32":
		p.width = 4
	case "f64":
		p.width = 8
	default:
		return p, fmt.Errorf("dtype must be f32 or f64")
	}
	if elem := int64(p.width); elems > MaxBody/elem {
		return p, fmt.Errorf("grid of %d bytes exceeds the per-request limit of %d", elems*elem, MaxBody)
	}
	ebStr := param(r, "eb", "X-Stz-Error-Bound")
	if ebStr == "" {
		return p, fmt.Errorf("missing eb parameter")
	}
	eb, err := strconv.ParseFloat(ebStr, 64)
	if err != nil || !(eb > 0) {
		return p, fmt.Errorf("invalid error bound %q", ebStr)
	}
	p.cfg = codec.Config{EB: eb}
	switch mode := param(r, "mode", "X-Stz-Mode"); mode {
	case "", "abs":
	case "rel":
		p.rel, p.relEB = true, eb
		p.cfg.Mode = codec.ModeRel
	default:
		return p, fmt.Errorf("mode must be abs or rel, got %q", mode)
	}
	if c := param(r, "chunks", "X-Stz-Chunks"); c != "" {
		n, err := strconv.Atoi(c)
		if err != nil || n < 0 {
			return p, fmt.Errorf("invalid chunks %q", c)
		}
		p.cfg.Chunks = n
	}
	return p, nil
}

func (s *Server) handleCompress(w http.ResponseWriter, c *call) {
	p, err := parseCompressParams(c.r, s.opts.MaxBody)
	if err == nil {
		_, err = codec.Lookup(p.codecName)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	if !s.acquire(c.r) {
		saturated(w)
		return
	}
	defer s.release()
	p.cfg.Workers = s.opts.Workers
	if p.width == 4 {
		err = compressRequest[float32](w, c.r.Body, p, s.opts.Window)
	} else {
		err = compressRequest[float64](w, c.r.Body, p, s.opts.Window)
	}
	if err != nil {
		// Nothing has been written yet (the streaming writer buffers the
		// archive until Close), so a clean error status is still possible.
		if errors.Is(err, errBodyWrite) {
			log.Printf("compress: client write failed: %v", err)
			return
		}
		s.requestError(w, err)
	}
}

// errBodyWrite marks failures while writing the response body, after the
// status line is out.
var errBodyWrite = errors.New("response write")

// compressRequest streams the request body through the bounded-memory
// codec writer and emits the archive. Relative-mode requests must see the
// whole grid to resolve the bound, so they buffer it first (still subject
// to the body limit).
func compressRequest[T grid.Float](w http.ResponseWriter, body io.Reader, p compressParams, window int) error {
	vr := rawio.NewReader[T](body, 0)
	n := p.nz * p.ny * p.nx

	if p.rel {
		// The staging grid only lives for this request; ReadExactly
		// overwrites every element of the lease before any read.
		gbuf := scratch.LeaseFloat[T](n)
		defer scratch.ReleaseFloat(gbuf)
		g := &grid.Grid[T]{Data: gbuf, Nz: p.nz, Ny: p.ny, Nx: p.nx}
		if err := vr.ReadExactly(g.Data); err != nil {
			return fmt.Errorf("reading grid: %w", err)
		}
		if err := ensureDrained(vr); err != nil {
			return err
		}
		enc, err := codec.Encode(p.codecName, g, p.cfg)
		if err != nil {
			return err
		}
		setGridHeaders(w.Header(), "application/octet-stream", p.codecName, p.nz, p.ny, p.nx, p.width)
		if _, err := w.Write(enc); err != nil {
			return fmt.Errorf("%w: %v", errBodyWrite, err)
		}
		return nil
	}

	sw, err := codec.NewWriter[T](&deferredResponse{w: w, p: p}, p.codecName, p.nz, p.ny, p.nx, p.cfg)
	if err != nil {
		return err
	}
	sw.Window = window
	buf := scratch.LeaseFloat[T](min(n, 64*1024))
	defer scratch.ReleaseFloat(buf)
	remaining := n
	for remaining > 0 {
		k := min(remaining, len(buf))
		if err := vr.ReadExactly(buf[:k]); err != nil {
			return fmt.Errorf("reading grid: %w", err)
		}
		if err := sw.Write(buf[:k]); err != nil {
			return err
		}
		remaining -= k
	}
	if err := ensureDrained(vr); err != nil {
		return err
	}
	return sw.Close()
}

// ensureDrained rejects bodies with trailing bytes beyond the grid extent.
func ensureDrained[T grid.Float](vr *rawio.Reader[T]) error {
	var probe [1]T
	k, err := vr.Read(probe[:])
	if k != 0 {
		return fmt.Errorf("request body larger than the declared grid")
	}
	if err != nil && err != io.EOF {
		return fmt.Errorf("reading request body: %w", err)
	}
	return nil
}

// setGridHeaders describes a response body: its media type and the
// codec, dims and dtype of the grid it holds or encodes.
func setGridHeaders(h http.Header, ctype, codecName string, nz, ny, nx int, width byte) {
	h.Set("Content-Type", ctype)
	h.Set("X-Stz-Codec", codecName)
	h.Set("X-Stz-Dims", fmt.Sprintf("%dx%dx%d", nz, ny, nx))
	h.Set("X-Stz-Dtype", dtypeName(width))
}

// dtypeName is the wire name of an element width (codec.Header.DType).
func dtypeName(width byte) string {
	if width == 4 {
		return "f32"
	}
	return "f64"
}

// deferredResponse delays the success headers until the codec writer emits
// its first archive byte (at Close), so ingest errors can still produce a
// clean 4xx.
type deferredResponse struct {
	w       http.ResponseWriter
	p       compressParams
	started bool
}

func (d *deferredResponse) Write(b []byte) (int, error) {
	if !d.started {
		d.started = true
		setGridHeaders(d.w.Header(), "application/octet-stream", d.p.codecName, d.p.nz, d.p.ny, d.p.nx, d.p.width)
	}
	n, err := d.w.Write(b)
	if err != nil {
		err = fmt.Errorf("%w: %v", errBodyWrite, err)
	}
	return n, err
}

func (s *Server) handleDecompress(w http.ResponseWriter, c *call) {
	if !s.acquire(c.r) {
		saturated(w)
		return
	}
	defer s.release()
	st, err := codec.OpenStream(c.r.Body)
	if err != nil {
		s.requestError(w, err)
		return
	}
	hdr := st.Header()
	if rawBytes := int64(hdr.Nz) * int64(hdr.Ny) * int64(hdr.Nx) * int64(hdr.DType); rawBytes > s.opts.MaxBody {
		httpError(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge,
			"decompressed grid of %d bytes exceeds the per-request limit of %d", rawBytes, s.opts.MaxBody)
		return
	}
	if hdr.DType == 4 {
		err = decompressRequest[float32](w, st, hdr, s.opts)
	} else {
		err = decompressRequest[float64](w, st, hdr, s.opts)
	}
	if err != nil {
		if errors.Is(err, errBodyWrite) {
			log.Printf("decompress: client write failed: %v", err)
			return
		}
		s.requestError(w, err)
	}
}

// decompressRequest streams decoded planes to the client. The first slab
// window is decoded before the status line goes out so malformed payloads
// still get a 4xx; later failures can only abort the stream.
func decompressRequest[T grid.Float](w http.ResponseWriter, st *codec.Stream, hdr codec.Header, o Options) error {
	sr, err := codec.NewStreamReader[T](st)
	if err != nil {
		return err
	}
	sr.Workers = o.Workers
	sr.Window = o.Window
	n := hdr.Nz * hdr.Ny * hdr.Nx
	buf := scratch.LeaseFloat[T](min(n, 64*1024))
	defer scratch.ReleaseFloat(buf)
	k, err := sr.Read(buf)
	if err != nil && err != io.EOF {
		return err
	}
	setGridHeaders(w.Header(), "application/octet-stream", hdr.Codec, hdr.Nz, hdr.Ny, hdr.Nx, hdr.DType)
	w.Header().Set("Content-Length", strconv.FormatInt(int64(n)*int64(rawio.ElemSize[T]()), 10))
	vw := rawio.NewWriter[T](w, 0)
	for {
		if k > 0 {
			if werr := vw.Write(buf[:k]); werr != nil {
				return fmt.Errorf("%w: %v", errBodyWrite, werr)
			}
		}
		if err == io.EOF {
			return nil
		}
		k, err = sr.Read(buf)
		if err != nil && err != io.EOF {
			// Mid-stream decode failure: the status is already committed,
			// so the best we can do is truncate the response.
			return fmt.Errorf("%w: decode failed mid-stream: %v", errBodyWrite, err)
		}
	}
}
