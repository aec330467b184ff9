package stzd

import (
	"encoding/json"
	"net/http"
	"strconv"
	"time"

	"stz/internal/repair"
)

// Self-healing replication: the background machinery that converges the
// replica set after failures instead of letting it decay.
//
//   - Hint replay drains the hinted-handoff queue (internal/repair):
//     writes that missed a replica while it was down are re-applied the
//     moment its circuit breaker closes again (OnStateChange → kick) and
//     on every HintRetryInterval tick as a backstop.
//   - Read repair re-pushes an archive from the replica that served a
//     failover read to the owners that 404'd it, single-flighted per
//     id+version so concurrent reads repair once.
//   - Anti-entropy periodically diffs this node's manifest against each
//     co-owner's (GET /v1/manifest) and pushes missing or older entries
//     — and DELETE tombstones — until both sides agree. Push-only
//     symmetric sweeps are enough: a wiped node is refilled by its
//     peers' sweeps even though its own manifest is empty.
//
// Every push carries the original X-Stz-Write-Time, and the store's
// last-writer-wins rule (store.go) rejects anything older than what a
// replica already holds — so healing traffic is safe to apply in any
// order, any number of times, and can never resurrect a deleted archive
// past its tombstone.

// selfhealLoop is the cluster node's one background goroutine: hint
// replay on kicks and ticks, anti-entropy on its own slower cadence.
// Close cancels baseCtx, which also aborts any in-flight pushes.
func (s *Server) selfhealLoop() {
	defer close(s.done)
	hintTick := time.NewTicker(s.opts.HintRetryInterval)
	defer hintTick.Stop()
	var aeC <-chan time.Time
	if s.opts.AntiEntropyInterval > 0 {
		aeTick := time.NewTicker(s.opts.AntiEntropyInterval)
		defer aeTick.Stop()
		aeC = aeTick.C
	}
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-s.kick:
			s.flushHints()
		case <-hintTick.C:
			s.flushHints()
		case <-aeC:
			s.antiEntropyRound()
		}
	}
}

// flushHints replays each peer's hint backlog in FIFO order, stopping a
// peer's drain at the first transport or 5xx failure (the hint stays
// queued; the breaker records the failure). Replay doubles as the
// breaker's half-open probe: Allow gates each attempt, so a still-down
// peer costs one probe per flush, not a backlog's worth of timeouts.
func (s *Server) flushHints() {
	for _, peer := range s.hints.Peers() {
		for s.baseCtx.Err() == nil {
			h, ok := s.hints.Peek(peer)
			if !ok {
				break
			}
			br := s.health.Breaker(peer)
			if !br.Allow() {
				break
			}
			ok, terminal := s.replayHint(peer, h)
			if !ok && !terminal {
				br.Failure()
				s.hints.Fail(peer)
				break
			}
			// Replayed, or deterministically obsolete (the peer holds newer
			// state, or already applied the delete): either way the peer
			// answered and the hint is resolved.
			br.Success()
			s.hints.Ack(peer)
		}
	}
}

// replayHint re-applies one missed write against its peer. ok means the
// peer accepted it; terminal means the peer answered definitively that
// the hint is obsolete (404 on a delete, 409 stale write) — replaying
// again cannot change the answer, so the hint resolves either way.
func (s *Server) replayHint(peer string, h repair.Hint) (ok, terminal bool) {
	switch status := s.peerWrite(h.Method, peer, h.Path, h.Body, h.WriteTime); {
	case status < 300:
		return true, false
	case status < 500:
		return false, true
	default:
		return false, false
	}
}

// peerWrite sends one forwarded write to peer, stamped with the write's
// original time, and returns the response status. A request that cannot
// be built reports 400, and a transport failure or an unreadable answer
// 503 — the classes (never going to work; try again later) every caller
// already sorts them into.
func (s *Server) peerWrite(method, peer, path string, body []byte, mtime int64) int {
	hdr := http.Header{WriteTimeHeader: {strconv.FormatInt(mtime, 10)}}
	status, _, _, err := s.peerDo(s.baseCtx, method, peer, path, hdr, body, maxBufferedProxy)
	if _, unsent := err.(peerRequestError); unsent {
		return http.StatusBadRequest
	}
	if err != nil {
		return http.StatusServiceUnavailable
	}
	return status
}

// spawnReadRepair asynchronously re-pushes id from the replica that
// just served it to the owners that answered 404. Each (id, version,
// peer) push is single-flighted so a burst of reads against the same
// lagging replica repairs it once.
func (s *Server) spawnReadRepair(id, from string, lagging []string) {
	if len(lagging) == 0 || s.baseCtx.Err() != nil {
		return
	}
	go func() {
		raw, mtime, ok := s.fetchRaw(id, from)
		if !ok {
			return
		}
		for _, peer := range lagging {
			key := id + "\x00" + strconv.FormatInt(mtime, 10) + "\x00" + peer
			s.repairFlights.Do(key, func() (bool, error) {
				if s.pushCopy(peer, id, raw, mtime) {
					s.readRepairs.Add(1)
					return true, nil
				}
				return false, nil
			})
		}
	}()
}

// fetchRaw obtains id's archive bytes and write-time from one replica:
// the local store when from is this node, GET /raw otherwise (refused
// past -max-body).
func (s *Server) fetchRaw(id, from string) ([]byte, int64, bool) {
	if from == s.opts.Self {
		return s.store.getRaw(id)
	}
	status, hdr, data, err := s.peerDo(s.baseCtx, http.MethodGet, from, "/v1/archives/"+id+"/raw", nil, nil, s.opts.MaxBody)
	if err != nil || status != http.StatusOK {
		return nil, 0, false
	}
	mtime, err := strconv.ParseInt(hdr.Get(WriteTimeHeader), 10, 64)
	if err != nil {
		return nil, 0, false
	}
	return data, mtime, true
}

// pushCopy applies one archive version to a replica: locally when peer
// is this node, a forwarded PUT otherwise. A 409 (the replica holds
// newer state) reports false — there is nothing left to heal.
func (s *Server) pushCopy(peer, id string, raw []byte, mtime int64) bool {
	if peer == s.opts.Self {
		_, _, err := s.store.put(id, raw, mtime)
		return err == nil
	}
	return s.peerWrite(http.MethodPut, peer, "/v1/archives/"+id, raw, mtime) < 300
}

// pushDelete applies a tombstone to a replica via forwarded DELETE. A
// 404 counts as success: the replica already lacks the archive, which
// is the state the tombstone wants (and it records its own tombstone).
func (s *Server) pushDelete(peer, id string, mtime int64) bool {
	status := s.peerWrite(http.MethodDelete, peer, "/v1/archives/"+id, nil, mtime)
	return status < 300 || status == http.StatusNotFound
}

// antiEntropyRound diffs this node's manifest against every co-owner's
// and pushes whatever the peer is missing — the backstop that converges
// a wiped or long-partitioned replica even when no hint survived and no
// read happens to touch the divergent ids.
func (s *Server) antiEntropyRound() {
	archives, tombs := s.store.manifest()
	for _, peer := range s.ring.Peers() {
		if peer == s.opts.Self || s.baseCtx.Err() != nil {
			continue
		}
		br := s.health.Breaker(peer)
		if !br.Allow() {
			continue
		}
		m, ok := s.fetchManifest(peer)
		if !ok {
			br.Failure()
			continue
		}
		br.Success()
		s.diffAndPush(peer, m, archives, tombs)
	}
	s.aeRounds.Add(1)
}

// fetchManifest pulls one peer's replication digest, refused past
// -max-body like a raw archive.
func (s *Server) fetchManifest(peer string) (manifestJSON, bool) {
	var m manifestJSON
	status, _, data, err := s.peerDo(s.baseCtx, http.MethodGet, peer, "/v1/manifest", nil, nil, s.opts.MaxBody)
	if err != nil || status != http.StatusOK || json.Unmarshal(data, &m) != nil {
		return manifestJSON{}, false
	}
	return m, true
}

// diffAndPush reconciles one peer against this node's manifest snapshot
// for the ids the two nodes co-own. Last-writer-wins arbitrates every
// direction: newer local entries (and tombstones) are pushed, a newer
// remote tombstone is applied locally, and an mtime tie with divergent
// content is broken by the larger checksum so both sides pick the same
// winner instead of pushing at each other forever.
func (s *Server) diffAndPush(peer string, remote manifestJSON, archives map[string]manifestEntry, tombs map[string]int64) {
	for id, le := range archives {
		if !s.sharedOwner(id, peer) {
			continue
		}
		if rt, ok := remote.Tombstones[id]; ok && rt >= le.MTime {
			// The peer deleted this archive at or after our version was
			// written: the tombstone wins. Apply it locally.
			s.aeDivergences.Add(1)
			s.store.delete(id, rt)
			continue
		}
		re, ok := remote.Archives[id]
		push := !ok || re.MTime < le.MTime ||
			(re.MTime == le.MTime && re.Sum < le.Sum)
		if !push {
			continue
		}
		s.aeDivergences.Add(1)
		raw, mtime, resident := s.store.getRaw(id)
		if !resident || mtime != le.MTime {
			continue // the archive moved on since the snapshot
		}
		if s.pushCopy(peer, id, raw, mtime) {
			s.aeRepaired.Add(1)
		}
	}
	for id, t := range tombs {
		if !s.sharedOwner(id, peer) {
			continue
		}
		re, ok := remote.Archives[id]
		if !ok || re.MTime > t {
			continue // nothing to delete, or the peer's entry outranks the tombstone
		}
		s.aeDivergences.Add(1)
		if s.pushDelete(peer, id, t) {
			s.aeRepaired.Add(1)
		}
	}
}

// sharedOwner reports whether this node and peer are both owners of id
// — the only pairs anti-entropy reconciles.
func (s *Server) sharedOwner(id, peer string) bool {
	owners := s.ring.Owners(id, s.opts.Replicas)
	return indexOf(owners, peer) >= 0 && indexOf(owners, s.opts.Self) >= 0
}
