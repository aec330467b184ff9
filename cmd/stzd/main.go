// Command stzd serves the unified codec registry over HTTP: a streaming,
// bounded-memory compression service in front of internal/codec.
//
//	stzd -addr :8321 -max-body 1073741824 -max-inflight 4 -workers 8
//
// Endpoints:
//
//	POST /v1/compress?codec=zfp&dims=64x64x64&dtype=f32&eb=1e-3[&mode=rel][&chunks=8]
//	     body: raw little-endian values, row-major (x fastest)
//	     response: SZXC archive (identical to codec.Encode / stz compress)
//	POST /v1/decompress
//	     body: SZXC archive; response: raw little-endian values
//	PUT    /v1/archives/{id}        store an SZXC archive in the resident
//	       query store (sharded, byte-budgeted LRU; see -archive-budget)
//	GET    /v1/archives             list resident archives
//	GET    /v1/archives/{id}        archive metadata as JSON
//	DELETE /v1/archives/{id}        evict an archive
//	GET    /v1/archives/{id}/box?box=z0:z1,y0:y1,x0:x1
//	       random-access sub-box decode; response: raw little-endian
//	       values, with X-Stz-Read-Bytes / X-Stz-Payload-Bytes reporting
//	       how little of the archive the query touched
//	POST   /v1/archives/{id}/roi    run the ROI selector server-side
//	       body: {"mode":"max|range","block":16,"threshold":T,"top":P}
//	       response: selected regions, each addressable via /box
//	GET  /v1/codecs      registry capability matrix as JSON
//	GET  /v1/manifest    replication digest of the resident store: per-id
//	     write time, length and checksum, plus DELETE tombstones (what
//	     anti-entropy sweeps diff between replicas)
//	GET  /v1/stats       scratch-pool hit rates, archive store and
//	     in-flight job count
//	GET  /healthz        liveness probe
//
// Every parameter may also be supplied as an X-Stz-* header (X-Stz-Codec,
// X-Stz-Dims, X-Stz-Dtype, X-Stz-Error-Bound, X-Stz-Mode, X-Stz-Chunks).
// Both data endpoints stream with bounded in-flight memory: compress
// responds with chunked transfer (the archive size is unknowable up
// front), decompress pre-declares the exact Content-Length from the
// stream header and writes the body as slabs decode. Concurrency is
// capped by -max-inflight (saturated requests receive 503 after a short
// admission wait) and request lifetimes by -timeout, so stalled clients
// cannot pin job slots.
//
// Errors are structured: every non-2xx response carries a JSON envelope
// {"error":{"code":"...","message":"...","retryable":bool}} with a stable
// machine code (docs/API.md lists them all).
//
// Cluster mode: -peers host:port,... plus -self places archive ids on a
// consistent-hash ring over the peer set; requests for ids owned by
// another node are forwarded transparently (X-Stz-Served-By names the
// node that did the work, X-Stz-Replica its position in the replica
// set). With -replicas R > 1 each archive is stored on the first R
// owners walking the ring: PUT and DELETE fan out to all R (a PUT
// succeeds once a majority quorum acks and reports every replica's
// outcome in the response), and reads are served by the node addressed
// when it is an owner; a non-owner walks the replica set in owner order.
// Either walk fails over with jittered backoff, so single-node faults stay
// invisible to clients. A per-peer circuit breaker (consecutive
// failures open it; a half-open probe closes it again) steers reads
// away from unhealthy peers and is surfaced via /healthz (degraded)
// and /v1/stats (cluster.peer_health). Only when every replica is
// unreachable does the client see an error: a retryable 503
// peer_unreachable envelope with Retry-After. See docs/API.md for the
// full semantics.
//
// The replica set self-heals. Writes that miss a down replica are
// queued as hints (bounded by -hint-budget) and replayed the moment the
// peer's breaker closes again; a read served by a fallback replica
// re-pushes the archive to the owners that missed it (read repair); and
// a background sweep (every -anti-entropy) diffs this node's
// /v1/manifest against each co-owner's and re-replicates missing or
// stale entries, propagating DELETE tombstones so a removed archive
// never resurrects. Hint backlog is surfaced in /healthz and all repair
// counters under /v1/stats (repair.*).
//
// -pprof (off by default) additionally mounts net/http/pprof under
// /debug/pprof/ for live profiling of a loaded instance.
//
// The handler itself lives in internal/stzd so tests, cmd/stzload and the
// benchmark (benchmark/) can embed the identical service in-process; this
// command only binds flags and the listener around stzd.New.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stz/internal/parallel"
	"stz/internal/stzd"
)

func main() {
	addr := flag.String("addr", ":8321", "listen address")
	maxBody := flag.Int64("max-body", 1<<30, "per-request raw/archive byte limit")
	maxInflight := flag.Int("max-inflight", 4, "concurrent compression jobs")
	workers := flag.Int("workers", parallel.DefaultWorkers(), "codec workers per job (default honors STZ_WORKERS)")
	window := flag.Int("window", 0, "streaming window in z-slabs (0 = auto)")
	timeout := flag.Duration("timeout", 5*time.Minute,
		"per-request read and write deadline; bounds how long a stalled client can hold a job slot (0 = none)")
	grace := flag.Duration("grace", 10*time.Second, "graceful shutdown timeout")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	archiveBudget := flag.Int64("archive-budget", 1<<30,
		"byte budget of the resident archive store (LRU-evicted beyond this; "+
			"a single archive is capped at budget/shards)")
	archiveShards := flag.Int("archive-shards", 8,
		"archive store shard count (the budget splits evenly across shards)")
	boxCacheBudget := flag.Int64("box-cache-budget", 0,
		"byte budget of the decoded hot-box result cache (0 = default 256 MiB, negative disables)")
	self := flag.String("self", "",
		"this node's advertised host:port in cluster mode (must appear in -peers)")
	peers := flag.String("peers", "",
		"comma-separated host:port peer list enabling cluster mode; "+
			"archive requests route to the consistent-hash owner of the id")
	replicas := flag.Int("replicas", 1,
		"replication factor in cluster mode: each archive is stored on the "+
			"first N ring owners, writes need a majority quorum, reads fail "+
			"over across the set")
	hintBudget := flag.Int64("hint-budget", 0,
		"byte budget of the hinted-handoff queue for writes that missed a "+
			"down replica (0 = default 64 MiB, negative disables hints; "+
			"oldest hints drop first beyond the budget)")
	antiEntropy := flag.Duration("anti-entropy", 0,
		"interval between anti-entropy sweeps that diff replica manifests "+
			"and re-replicate missing or stale archives (0 = default 30s, "+
			"negative disables)")
	flag.Parse()

	h := stzd.New(stzd.Options{
		MaxBody:             *maxBody,
		MaxInflight:         *maxInflight,
		Workers:             *workers,
		Window:              *window,
		EnablePprof:         *pprofOn,
		ArchiveBudget:       *archiveBudget,
		ArchiveShards:       *archiveShards,
		BoxCacheBudget:      *boxCacheBudget,
		Self:                *self,
		Peers:               stzd.SplitPeers(*peers),
		Replicas:            *replicas,
		HintBudget:          *hintBudget,
		AntiEntropyInterval: *antiEntropy,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *timeout,
		WriteTimeout:      *timeout,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("stzd listening on %s (max-body %d, max-inflight %d, workers %d)",
		*addr, *maxBody, *maxInflight, *workers)

	select {
	case err := <-errc:
		log.Fatalf("stzd: %v", err)
	case <-ctx.Done():
	}
	log.Printf("stzd: shutting down (grace %s)", *grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("stzd: shutdown: %v", err)
	}
	// Stop the self-healing loop (hint replay, anti-entropy) after the
	// listener drains so no background push races the shutdown.
	h.Close()
}
