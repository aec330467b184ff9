package stzd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"stz/internal/health"
	"stz/internal/repair"
	"stz/internal/retry"
)

// Cluster mode: archives are placed on a static peer topology by
// consistent-hashing their id (internal/cluster). With -replicas R each
// id lives on the first R distinct ring owners, and any node answers
// any request:
//
//   - Writes (PUT/DELETE) are coordinated by the node the client hit:
//     the body fans out to every owner (one hop each, the coordinator
//     applying its own copy locally when it is an owner), and the write
//     succeeds when a majority quorum of replicas accepted it. The
//     response carries per-replica results.
//   - Reads (info/box/roi) are served where they land when the node
//     addressed is an owner: it answers from its own store and box
//     cache. A non-owner forwards once, walking the replica list in
//     owner order — reordered away from peers whose circuit breakers
//     are open. Either walk fails over to the next replica on connect
//     errors, timeouts, 5xx responses, and truncated bodies, with
//     jittered exponential backoff between attempts (internal/retry).
//     Responses small enough to buffer are verified against their
//     Content-Length before a byte reaches the client, so even a
//     mid-body failure is recoverable.
//   - When every replica is down the client gets a retryable 503
//     peer_unreachable envelope with a Retry-After hint, and the
//     breakers behind it surface in /healthz and /v1/stats.
//
// The X-Stz-Forwarded header is the hop guard: a forwarded request that
// lands on a node outside the id's owner set is answered with
// 421/not_owner instead of being forwarded again, so disagreeing
// topologies fail loudly rather than looping. X-Stz-Served-By names the
// node whose store did the work; X-Stz-Replica is that node's index in
// the id's owner list.

// ForwardedHeader marks a request as already forwarded once; its value
// is the address of the forwarding node.
const ForwardedHeader = "X-Stz-Forwarded"

// ServedByHeader names the node whose store served the request.
const ServedByHeader = "X-Stz-Served-By"

// ReplicaHeader is the serving node's zero-based index in the archive's
// owner list (0 = primary).
const ReplicaHeader = "X-Stz-Replica"

// WriteTimeHeader carries a write's last-writer-wins timestamp (unix
// nanoseconds). The fan-out coordinator stamps it once per write so all
// replicas store the same version; hint replay and repair pushes carry
// the original stamp so a healed write can never shadow a newer one.
const WriteTimeHeader = "X-Stz-Write-Time"

// maxBufferedProxy is the largest proxied read response the router
// buffers before committing to the client. Buffered responses can be
// length-verified and retried on another replica; larger ones stream.
const maxBufferedProxy = 4 << 20

// normalizeAddr canonicalizes a peer address to bare host:port.
func normalizeAddr(s string) string {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "http://")
	s = strings.TrimPrefix(s, "https://")
	return strings.TrimSuffix(s, "/")
}

// SplitPeers parses a -peers style comma-separated address list,
// trimming whitespace and URL scheme noise and dropping empty entries.
func SplitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = normalizeAddr(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func indexOf(list []string, v string) int {
	for i, x := range list {
		if x == v {
			return i
		}
	}
	return -1
}

// replicaResult is one replica's answer to a fanned-out write.
type replicaResult struct {
	Peer   string `json:"peer"`
	Status int    `json:"status"`
	OK     bool   `json:"ok"`
	Err    string `json:"error,omitempty"`
	header http.Header
	body   []byte
}

// quorum is the majority write threshold for n replicas.
func quorum(n int) int { return n/2 + 1 }

// fanoutWrite coordinates a PUT or DELETE across all owners: the body
// is applied on every replica (locally when this node is one), and the
// operation succeeds when a majority accepted it. The response is the
// primary successful replica's, with per-replica results attached to
// JSON bodies.
func (s *Server) fanoutWrite(w http.ResponseWriter, c *call, rt route, owners []string) {
	r, id := c.r, c.id
	isDelete := r.Method == http.MethodDelete
	// The coordinator stamps the write's LWW timestamp once, so every
	// replica — including a hinted replay long after the fact — stores
	// the same version.
	wt := time.Now().UnixNano()
	r.Header.Set(WriteTimeHeader, strconv.FormatInt(wt, 10))
	results := make([]replicaResult, len(owners))
	done := make(chan int, len(owners))
	for i, peer := range owners {
		go func(i int, peer string) {
			if peer == s.opts.Self {
				results[i] = s.applyLocal(c, rt, i)
			} else {
				results[i] = s.applyRemote(r, peer, c.body)
			}
			done <- i
		}(i, peer)
	}
	for range owners {
		<-done
	}

	// A replica 404ing a fanned-out DELETE is an ack, not a failure: the
	// archive is already gone there, which is the state the delete wants.
	acked := func(res replicaResult) bool {
		return res.OK || (isDelete && res.Status == http.StatusNotFound)
	}
	acks := 0
	winner := -1
	clientErr := -1
	for i, res := range results {
		if acked(res) {
			acks++
			// Prefer a 2xx winner over a 404-ack so a mixed DELETE outcome
			// still answers 204.
			if winner < 0 || (!results[winner].OK && res.OK) {
				winner = i
			}
		} else if res.Status >= 400 && res.Status < 500 && clientErr < 0 {
			clientErr = i
		}
	}
	if acks < quorum(len(owners)) {
		// A definitive client error (bad id, undecodable archive, unknown
		// id on delete) is the same on every replica — relay it verbatim
		// rather than blaming the peers.
		if clientErr >= 0 {
			replay(w, results[clientErr].header, results[clientErr].Status, results[clientErr].body)
			return
		}
		s.quorumFails.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, CodePeerUnreachable,
			"write quorum failed for archive %q: %d/%d replicas acked (need %d)",
			id, acks, len(owners), quorum(len(owners)))
		return
	}
	// The write succeeded with replicas missed: queue a hint per failed
	// replica (down or 5xx — a definitive 4xx rejection would just
	// repeat) so the write heals when the peer returns.
	for i, res := range results {
		if acked(res) || owners[i] == s.opts.Self || (res.Status >= 400 && res.Status < 500) {
			continue
		}
		s.hints.Enqueue(owners[i], repair.Hint{
			Method: r.Method, ID: id, Path: r.URL.RequestURI(),
			Body: c.body, WriteTime: wt,
		})
	}
	// Attach the per-replica outcomes to the entry JSON the winning
	// replica produced; a body that is not a JSON object replays
	// untouched (replay sets the new length).
	win, body := results[winner], results[winner].body
	var doc map[string]any
	if !isDelete && json.Unmarshal(win.body, &doc) == nil && doc != nil {
		doc["replicas"] = results
		if out, err := json.Marshal(doc); err == nil {
			body = out
		}
	}
	replay(w, win.header, win.Status, body)
}

// replay writes a replica's response to the client verbatim: its headers,
// status and body, whose length replaces the replica's when it is not
// empty. A nil body leaves the caller to stream one.
func replay(w http.ResponseWriter, hdr http.Header, status int, body []byte) {
	dst := w.Header()
	for k, vs := range hdr {
		dst[k] = append(dst[k], vs...)
	}
	if len(body) > 0 {
		dst.Set("Content-Length", strconv.Itoa(len(body)))
	}
	w.WriteHeader(status)
	w.Write(body)
}

// peerRequestError marks a peer request that could not be built (a
// malformed peer address or path). Nothing was sent, so it says nothing
// about the peer's health and retrying cannot help.
type peerRequestError struct{ error }

// peerSend is the one way this node sends a request to a peer: method
// on http://peer+path, marked forwarded so the peer serves it from its
// own store (one hop). hdr, nil for none, is sent as is — peerSend takes
// ownership — and a non-nil body is sent with its length. A
// peerRequestError reports a request that never left this node.
func (s *Server) peerSend(ctx context.Context, method, peer, path string, hdr http.Header, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://"+peer+path, rd)
	if err != nil {
		return nil, peerRequestError{err}
	}
	if hdr != nil {
		req.Header = hdr
	}
	req.Header.Set(ForwardedHeader, s.opts.Self)
	return s.peerClient.Do(req)
}

// peerDo is peerSend with the answer read whole. The answer is untrusted:
// one longer than limit bytes is an error, like a transport failure, so
// no peer can make this node buffer more than its caller expects.
func (s *Server) peerDo(ctx context.Context, method, peer, path string, hdr http.Header, body []byte, limit int64) (int, http.Header, []byte, error) {
	resp, err := s.peerSend(ctx, method, peer, path, hdr, body)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := readCapped(resp.Body, resp.ContentLength, limit)
	if err != nil {
		err = fmt.Errorf("reading %s answer: %w", peer, err)
	}
	return resp.StatusCode, resp.Header, data, err
}

// bodyStep bounds how far a body buffer runs ahead of the bytes that
// arrived: a declared length no bytes back costs at most this much.
const bodyStep = 1 << 20

// readCapped is the one reader of a whole body, a request's in the chain
// and a peer's answer in peerDo, refusing one longer than limit with an
// *http.MaxBytesError — the error the chain's MaxBytesReader gives, so a
// request answers the same whichever of the two notices. size is the
// length the body declares, -1 when unknown. A declared length is
// untrusted: its buffer starts at min(size, bodyStep) and doubles towards
// size only as bytes fill it, so a body up to bodyStep is one exact
// allocation and a header no bytes back cannot size one. A body that
// ends short of its declared length is io.ErrUnexpectedEOF. An unknown
// length is read growing from 512 bytes, up to limit.
func readCapped(r io.Reader, size, limit int64) ([]byte, error) {
	if size > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	want, first := size, min(size, bodyStep)
	if size < 0 {
		want, first = limit+1, min(limit+1, 512)
	}
	buf := make([]byte, 0, first)
	for int64(len(buf)) < want {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(want, 2*int64(cap(buf))))
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			if int64(len(buf)) < size {
				return buf, io.ErrUnexpectedEOF
			}
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
	if size < 0 {
		// limit+1 bytes arrived: the body is longer than limit.
		return buf, &http.MaxBytesError{Limit: limit}
	}
	return buf, nil
}

// answered records the response one replica gave to a fanned-out write.
func answered(peer string, status int, hdr http.Header, body []byte) replicaResult {
	res := replicaResult{Peer: peer, Status: status, OK: status < 300, header: hdr, body: body}
	if !res.OK {
		res.Err = http.StatusText(status)
	}
	return res
}

// applyLocal runs the write against this node's own store, recording the
// response it would have sent.
func (s *Server) applyLocal(c *call, rt route, idx int) replicaResult {
	rec := httptest.NewRecorder()
	s.serve(rec, c, rt, idx)
	return answered(s.opts.Self, rec.Code, rec.Header(), rec.Body.Bytes())
}

// applyRemote sends the write to one peer replica and records the
// outcome in the peer's circuit breaker. An answer that cannot be read —
// a broken body, or one past maxBufferedProxy — fails the leg.
func (s *Server) applyRemote(r *http.Request, peer string, body []byte) replicaResult {
	s.forwarded.Add(1)
	br := s.health.Breaker(peer)
	status, hdr, data, err := s.peerDo(r.Context(), r.Method, peer, r.URL.RequestURI(), r.Header.Clone(), body, maxBufferedProxy)
	if err != nil {
		if _, unsent := err.(peerRequestError); !unsent {
			br.Failure()
		}
		return replicaResult{Peer: peer, OK: false, Err: err.Error()}
	}
	if status >= 500 {
		br.Failure()
	} else {
		br.Success()
	}
	return answered(peer, status, hdr, data)
}

// readFailover serves a read by walking the archive's owner list. An
// owner answers its own reads, so this node goes first when it is one
// (self is its index in owners, -1 otherwise); the other owners follow
// in ring order, health-reordered so open-circuit peers go last. The
// walk fails over on transport errors, 5xx responses, and truncated
// bodies. A replica answering 404 is up but may be lagging (it missed
// the write), so the walk continues to the next replica; only when
// every reachable replica agrees the archive is gone does the 404
// commit. A read served after one or more replicas 404'd triggers an
// asynchronous read repair: the archive is re-pushed from the replica
// that served it to the lagging owners (selfheal.go).
func (s *Server) readFailover(w http.ResponseWriter, c *call, rt route, owners []string, self int) {
	r, id := c.r, c.id
	ordered := s.health.Reorder(owners)
	first := owners[0] // the replica the walk prefers; any other serving it is a failover
	if self >= 0 {
		first = s.opts.Self
		i := indexOf(ordered, first)
		copy(ordered[1:i+1], ordered[:i])
		ordered[0] = first
	}
	waiter := retry.NewWaiter(s.opts.PeerRetry, nil)
	var (
		floor    time.Duration
		lastErr  string
		attempts int
		lagging  []string       // replicas that 404'd: up, but missing the archive
		notFound *replicaResult // the first definitive 404, replayed if no replica has it
	)
	// served books a read that peer committed, and repairs the owners that
	// 404'd before it from that replica. The read failed over when the walk
	// moved past its first choice: that replica failed, missed the archive,
	// or had its circuit open.
	served := func(peer string) {
		s.replicaHits.Add(1)
		if peer != first {
			s.failovers.Add(1)
		}
		s.spawnReadRepair(id, peer, lagging)
	}
	for _, peer := range ordered {
		if peer == s.opts.Self {
			if _, _, ok := s.store.getRaw(id); !ok && len(owners) > 1 {
				// Our own store is missing the archive: we are the lagging
				// replica. Try the others before concluding it is gone.
				lagging = append(lagging, peer)
				continue
			}
			// Our own store is a replica: serve it directly. Local reads
			// have no transport to fail, so this always commits.
			s.serve(w, c, rt, self)
			served(peer)
			return
		}
		br := s.health.Breaker(peer)
		if br.State() == health.Open {
			// Open circuit, cooldown not elapsed: skip without burning a
			// retry attempt; the peer is already last in the ordering.
			lastErr = "circuit open to " + peer
			continue
		}
		if !waiter.Next() {
			break
		}
		if attempts > 0 {
			if err := waiter.Wait(r.Context(), floor); err != nil {
				break
			}
		}
		if !br.Allow() {
			// Another request holds this peer's half-open probe; let it
			// decide the peer's fate and move on.
			lastErr = "circuit probing " + peer
			continue
		}
		attempts++
		committed, nf, hint, errMsg := s.proxyRead(w, r, peer, c.body)
		if committed {
			br.Success()
			served(peer)
			return
		}
		if nf != nil {
			// The peer answered: it is healthy, just missing the archive.
			br.Success()
			lagging = append(lagging, peer)
			if notFound == nil {
				notFound = nf
			}
			continue
		}
		br.Failure()
		floor, lastErr = hint, errMsg
	}
	if notFound != nil {
		// Every replica that answered is missing the archive; relay the
		// first 404 envelope verbatim, exactly as a single owner would.
		s.replicaHits.Add(1)
		replay(w, notFound.header, notFound.Status, notFound.body)
		return
	}
	if indexOf(lagging, s.opts.Self) >= 0 {
		// Only our own (empty) replica answered: serve the local 404.
		s.serve(w, c, rt, self)
		s.replicaHits.Add(1)
		return
	}
	s.allDown.Add(1)
	w.Header().Set("Retry-After", "1")
	if lastErr == "" {
		lastErr = "no replica reachable"
	}
	httpError(w, http.StatusServiceUnavailable, CodePeerUnreachable,
		"all %d replicas of archive %q unavailable: %s", len(owners), id, lastErr)
}

// proxyRead attempts one replica. It reports committed=true once any
// response bytes (or a definitive status) reached the client; a 404 is
// returned buffered (not committed) so the caller can keep walking
// replicas that may still hold the archive; any other false return
// means nothing was written and the caller may fail over, with the
// peer's Retry-After hint as the next backoff floor.
func (s *Server) proxyRead(w http.ResponseWriter, r *http.Request, peer string, body []byte) (committed bool, notFound *replicaResult, floor time.Duration, errMsg string) {
	s.forwarded.Add(1)
	resp, err := s.peerSend(r.Context(), r.Method, peer, r.URL.RequestURI(), r.Header.Clone(), body)
	if err != nil {
		return false, nil, 0, err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		// The replica is up but failing; drain so the connection can be
		// reused, take its Retry-After as the backoff floor, move on.
		readCapped(resp.Body, resp.ContentLength, maxBufferedProxy)
		return false, nil, retry.RetryAfter(resp), peer + " answered " + resp.Status
	}
	if resp.StatusCode == http.StatusNotFound || (resp.ContentLength >= 0 && resp.ContentLength <= maxBufferedProxy) {
		// Small enough to verify before committing: a short or failed
		// body (a truncating peer, a dropped connection) stays invisible
		// to the client and the next replica gets its chance.
		data, err := readCapped(resp.Body, resp.ContentLength, maxBufferedProxy)
		if err != nil {
			return false, nil, 0, "reading " + peer + " response: " + err.Error()
		}
		if resp.StatusCode == http.StatusNotFound {
			// This replica is missing the archive — possibly lagging. Hand
			// the envelope to the caller; another replica may still have it.
			return false, &replicaResult{Peer: peer, Status: resp.StatusCode, header: resp.Header, body: data}, 0, ""
		}
		replay(w, resp.Header, resp.StatusCode, data)
		return true, nil, 0, ""
	}
	// Too large (or unknown length) to buffer: stream. Past this point a
	// body failure can only truncate the client's stream.
	replay(w, resp.Header, resp.StatusCode, nil)
	if _, err := io.Copy(w, resp.Body); err != nil {
		log.Printf("stzd: proxy read from %s: response copy: %v", peer, err)
	}
	return true, nil, 0, ""
}
