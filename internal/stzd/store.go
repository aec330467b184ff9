package stzd

import (
	"container/list"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sync"
	"sync/atomic"

	"stz/internal/codec"
	"stz/internal/grid"
	"stz/internal/rawio"
	"stz/internal/roi"
)

// errStoreBudget marks an archive whose budget charge alone exceeds a
// shard's share — no amount of eviction can make it fit.
var errStoreBudget = errors.New("archive exceeds store budget")

// errStaleWrite marks a put or delete that lost last-writer-wins: the
// store already holds a strictly newer version of the id (or a newer
// tombstone). Replayed hints and anti-entropy pushes hit this when the
// archive moved on while the write was queued; it is a terminal outcome
// for the writer, not a retryable failure.
var errStaleWrite = errors.New("stale write: a newer version of the archive exists")

// maxTombstones caps each shard's tombstone map; beyond it the oldest
// tombstones are forgotten. A forgotten tombstone only matters if a
// replica still holds a version older than it — the anti-entropy sweep
// closes that gap long before thousands of deletes age out.
const maxTombstones = 4096

// archiveStore is the server-side home of resident archives: a sharded,
// byte-budgeted LRU of parsed SZXC archives, each wrapped in a
// random-access reader so sub-box queries touch only the slabs they need.
// Shards are independent LRUs — an id hashes to one shard, and the byte
// budget is split evenly across shards, the usual trade of a slightly
// approximate global bound for uncontended locking under concurrent
// queries.
type archiveStore struct {
	shards    []*storeShard
	perShard  int64
	workers   int          // decode parallelism handed to each resident reader
	gen       atomic.Int64 // generation source for entries
	evictions atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
}

// storeShard is one LRU partition. lru front = most recently used.
type storeShard struct {
	mu    sync.Mutex
	byID  map[string]*list.Element // values are *archiveEntry
	lru   *list.List
	bytes int64
	// tombs remembers deleted ids and their delete write-time so a
	// replayed hint or an anti-entropy push carrying an older version
	// cannot resurrect an archive the cluster has deleted.
	tombs map[string]int64
}

// archiveEntry is one resident archive. The querier keeps the raw bytes
// alive (the reader holds views into them) and owns the parsed header;
// cost charges the raw archive size plus — for backends without native
// sub-box decoding — the decoded grid size, the ceiling of the reader's
// slab cache.
type archiveEntry struct {
	id      string
	gen     int64  // unique per put; keys caches so replaced ids never serve stale data
	size    int64  // raw archive bytes
	cost    int64  // bytes charged against the shard budget
	modTime int64  // LWW write-time (unix nanos) stamped by the write coordinator
	raw     []byte // the stored archive bytes (the querier holds views into them)
	q       querier

	sumOnce sync.Once
	sumVal  uint64 // set by sumOnce; read through sum
}

// hdr is the entry's stream metadata (held by the querier's reader; not
// duplicated here).
func (e *archiveEntry) hdr() codec.Header { return e.q.header() }

// sum is the FNV-64a of the raw bytes, for manifest diffs. The manifest
// is its only reader, so it is computed there, once per entry: a write
// never pays for it, and an entry replaced before any manifest sees it
// is never hashed. raw never changes after put, so no lock is needed.
func (e *archiveEntry) sum() uint64 {
	e.sumOnce.Do(func() {
		h := fnv.New64a()
		h.Write(e.raw)
		e.sumVal = h.Sum64()
	})
	return e.sumVal
}

func newArchiveStore(budget int64, nShards, workers int) *archiveStore {
	if nShards < 1 {
		nShards = 1
	}
	per := budget / int64(nShards)
	if per < 1 {
		per = 1
	}
	s := &archiveStore{shards: make([]*storeShard, nShards), perShard: per, workers: workers}
	for i := range s.shards {
		s.shards[i] = &storeShard{byID: map[string]*list.Element{}, lru: list.New(),
			tombs: map[string]int64{}}
	}
	return s
}

func (s *archiveStore) shard(id string) *storeShard {
	h := fnv.New32a()
	io.WriteString(h, id)
	return s.shards[int(h.Sum32())%len(s.shards)]
}

// put parses and stores an archive under id with write-time at (unix
// nanos), replacing any previous entry and evicting least-recently-used
// archives until the shard fits its budget share. It fails when the
// entry alone exceeds that share, and with errStaleWrite when the store
// already holds a strictly newer version or tombstone of the id — the
// last-writer-wins rule that makes hint replay and anti-entropy pushes
// safe to apply in any order.
func (s *archiveStore) put(id string, data []byte, at int64) (*archiveEntry, bool, error) {
	hdr, err := codec.ParseHeader(data)
	if err != nil {
		return nil, false, err
	}
	q, err := newQuerier(hdr, data, s.workers)
	if err != nil {
		return nil, false, err
	}
	e := &archiveEntry{id: id, gen: s.gen.Add(1), size: int64(len(data)), cost: q.cost(),
		modTime: at, raw: data, q: q}
	if e.cost > s.perShard {
		return nil, false, fmt.Errorf("%w: needs %d budget bytes, shard budget is %d",
			errStoreBudget, e.cost, s.perShard)
	}
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if t, ok := sh.tombs[id]; ok && t >= at {
		return nil, false, fmt.Errorf("%w: %q deleted at %d, write stamped %d", errStaleWrite, id, t, at)
	}
	replaced := false
	if el, ok := sh.byID[id]; ok {
		old := el.Value.(*archiveEntry)
		if old.modTime > at {
			return nil, false, fmt.Errorf("%w: %q has version %d, write stamped %d",
				errStaleWrite, id, old.modTime, at)
		}
		sh.bytes -= old.cost
		sh.lru.Remove(el)
		delete(sh.byID, id)
		replaced = true
	}
	delete(sh.tombs, id) // the write outranks any older tombstone
	for sh.bytes+e.cost > s.perShard {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*archiveEntry)
		sh.bytes -= victim.cost
		sh.lru.Remove(back)
		delete(sh.byID, victim.id)
		s.evictions.Add(1)
	}
	sh.byID[id] = sh.lru.PushFront(e)
	sh.bytes += e.cost
	return e, replaced, nil
}

// get returns the entry for id, marking it most recently used.
func (s *archiveStore) get(id string) (*archiveEntry, bool) {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, ok := sh.byID[id]
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	sh.lru.MoveToFront(el)
	s.hits.Add(1)
	return el.Value.(*archiveEntry), true
}

// delete removes id with delete write-time at (unix nanos). It reports
// whether an entry existed and whether the delete was stale (a strictly
// newer version is resident — the delete lost LWW and changed nothing).
// A winning delete always records a tombstone, even when no entry was
// resident, so a later replay of the write it raced cannot resurrect
// the archive.
func (s *archiveStore) delete(id string, at int64) (existed, stale bool) {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if el, ok := sh.byID[id]; ok {
		e := el.Value.(*archiveEntry)
		if e.modTime > at {
			return false, true
		}
		sh.bytes -= e.cost
		sh.lru.Remove(el)
		delete(sh.byID, id)
		existed = true
	}
	if cur, ok := sh.tombs[id]; !ok || at > cur {
		sh.tombs[id] = at
	}
	for len(sh.tombs) > maxTombstones {
		oldID, oldAt := "", int64(0)
		for tid, t := range sh.tombs {
			if oldID == "" || t < oldAt {
				oldID, oldAt = tid, t
			}
		}
		delete(sh.tombs, oldID)
	}
	return existed, false
}

// getRaw returns id's stored bytes and write-time without touching the
// LRU order or the hit/miss counters — the accessor the repair paths
// (read repair, hint replay, anti-entropy pushes) use, so healing
// traffic never skews demand accounting.
func (s *archiveStore) getRaw(id string) (raw []byte, modTime int64, ok bool) {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	el, found := sh.byID[id]
	if !found {
		return nil, 0, false
	}
	e := el.Value.(*archiveEntry)
	return e.raw, e.modTime, true
}

// manifestEntry is one archive's digest in the node manifest: enough
// for a peer to decide "missing here", "divergent", or "mine is newer"
// without moving any archive bytes.
type manifestEntry struct {
	// MTime is the entry's LWW write-time (unix nanos).
	MTime int64 `json:"mtime"`
	// Bytes is the raw archive length.
	Bytes int64 `json:"bytes"`
	// Sum is the FNV-64a of the raw bytes, hex-encoded.
	Sum string `json:"sum"`
}

// manifest snapshots the node's digest: every resident archive's
// (write-time, length, checksum) plus the live tombstones — the
// anti-entropy sweep's unit of comparison. The entries are listed under
// each shard's lock and hashed after it is released, so a manifest never
// holds up a PUT or GET on a shard while it hashes.
func (s *archiveStore) manifest() (map[string]manifestEntry, map[string]int64) {
	var entries []*archiveEntry
	tombs := map[string]int64{}
	for _, sh := range s.shards {
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			entries = append(entries, el.Value.(*archiveEntry))
		}
		for id, t := range sh.tombs {
			tombs[id] = t
		}
		sh.mu.Unlock()
	}
	archives := make(map[string]manifestEntry, len(entries))
	for _, e := range entries {
		archives[e.id] = manifestEntry{MTime: e.modTime, Bytes: e.size, Sum: fmt.Sprintf("%016x", e.sum())}
	}
	return archives, tombs
}

// snapshot lists the resident entries (MRU first within each shard) and
// the total charged bytes.
func (s *archiveStore) snapshot() ([]*archiveEntry, int64) {
	var out []*archiveEntry
	var bytes int64
	for _, sh := range s.shards {
		sh.mu.Lock()
		for el := sh.lru.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*archiveEntry))
		}
		bytes += sh.bytes
		sh.mu.Unlock()
	}
	return out, bytes
}

// querier hides the archive's element type behind a uniform query surface
// (Go interfaces cannot carry generic methods, so the float32/float64
// instantiations live behind this).
type querier interface {
	// header is the parsed stream metadata.
	header() codec.Header
	// cost is the byte charge against the store budget.
	cost() int64
	// decodeBox decodes box b; write then streams its raw little-endian
	// values, so a decode failure is known before a response starts.
	decodeBox(b grid.Box) (write func(io.Writer) error, err error)
	// queryROI runs the server-side ROI selector over the full grid.
	queryROI(p roiParams) (roiResult, error)
	// accounting reports (payload bytes read since open, total payload).
	accounting() (read, payload int64)
	// rawSection returns chunk i's still-compressed z-slab section (a
	// self-describing stream) without decoding — the zero-copy serving
	// path. The slice aliases the resident archive; callers must not
	// mutate it.
	rawSection(i int) ([]byte, error)
}

// roiParams are the validated inputs of one ROI selection request.
type roiParams struct {
	mode   roi.Mode
	block  int
	thresh float64
	topPct float64 // > 0 selects top-percent instead of threshold
}

// roiResult is the selector output in transport-ready form.
type roiResult struct {
	regions  []roi.Region
	scanned  int
	coverage float64
}

// typedQuerier adapts codec.ReaderAt to the querier interface for one
// element type.
type typedQuerier[T grid.Float] struct {
	ra   *codec.ReaderAt[T]
	size int64
}

// newQuerier wraps a resident archive in a random-access reader of the
// stream's element type.
func newQuerier(hdr codec.Header, data []byte, workers int) (querier, error) {
	if hdr.DType == 4 {
		return openQuerier[float32](data, workers)
	}
	return openQuerier[float64](data, workers)
}

func openQuerier[T grid.Float](data []byte, workers int) (querier, error) {
	ra, err := codec.OpenReaderAt[T](data)
	if err != nil {
		return nil, err
	}
	ra.Workers = workers
	return &typedQuerier[T]{ra: ra, size: int64(len(data))}, nil
}

func (q *typedQuerier[T]) header() codec.Header { return q.ra.Header() }

func (q *typedQuerier[T]) cost() int64 {
	hdr := q.ra.Header()
	if q.ra.NativeRandomAccess() {
		// Native sub-box decode holds no slab cache: only the raw bytes
		// stay resident.
		return q.size
	}
	return q.size + int64(hdr.Nz)*int64(hdr.Ny)*int64(hdr.Nx)*int64(hdr.DType)
}

func (q *typedQuerier[T]) rawSection(i int) ([]byte, error) { return q.ra.RawSection(i) }

func (q *typedQuerier[T]) decodeBox(b grid.Box) (func(io.Writer) error, error) {
	g, err := q.ra.DecompressBox(b)
	if err != nil {
		return nil, err
	}
	return func(w io.Writer) error { return rawio.NewWriter[T](w).Write(g.Data) }, nil
}

func (q *typedQuerier[T]) queryROI(p roiParams) (roiResult, error) {
	hdr := q.ra.Header()
	full, err := q.ra.DecompressBox(grid.Box{Z1: hdr.Nz, Y1: hdr.Ny, X1: hdr.Nx})
	if err != nil {
		return roiResult{}, err
	}
	regions, err := roi.ScanBlocks(full, p.block, p.mode)
	if err != nil {
		return roiResult{}, err
	}
	var sel []roi.Region
	if p.topPct > 0 {
		sel = roi.TopPercent(regions, p.topPct)
	} else {
		sel = roi.Threshold(regions, p.thresh)
	}
	return roiResult{regions: sel, scanned: len(regions), coverage: roi.Coverage(full, sel)}, nil
}

func (q *typedQuerier[T]) accounting() (int64, int64) {
	return q.ra.BytesRead(), q.ra.PayloadBytes()
}
