package stzd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
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
//   - Reads (info/box/roi) walk the replica list in owner order —
//     reordered away from peers whose circuit breakers are open — and
//     fail over to the next replica on connect errors, timeouts, 5xx
//     responses, and truncated bodies, with jittered exponential
//     backoff between attempts (internal/retry). Responses small enough
//     to buffer are verified against their Content-Length before a byte
//     reaches the client, so even a mid-body failure is recoverable.
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

// routed wraps an archive handler with replica routing. Single-node
// deployments (no ring) serve everything locally. In cluster mode a
// request that already carries the forwarded marker is a replica apply:
// it must land on an owner (else 421) and is served from the local
// store. A fresh request makes this node the coordinator: writes fan
// out to all owners, reads walk them with failover.
func (s *Server) routed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.ring == nil {
			h(w, r)
			return
		}
		id := r.PathValue("id")
		owners := s.ring.Owners(id, s.opts.Replicas)
		selfIdx := indexOf(owners, s.opts.Self)
		if from := r.Header.Get(ForwardedHeader); from != "" {
			if selfIdx < 0 {
				s.notOwner.Add(1)
				httpError(w, http.StatusMisdirectedRequest, CodeNotOwner,
					"archive %q is owned by %v, not %s (request forwarded by %s; peer topologies disagree)",
					id, owners, s.opts.Self, from)
				return
			}
			w.Header().Set(ServedByHeader, s.opts.Self)
			w.Header().Set(ReplicaHeader, strconv.Itoa(selfIdx))
			h(w, r)
			return
		}
		switch r.Method {
		case http.MethodPut:
			s.fanoutWrite(w, r, id, owners, h, false)
		case http.MethodDelete:
			s.fanoutWrite(w, r, id, owners, h, true)
		default:
			s.readFailover(w, r, id, owners, h)
		}
	}
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
func (s *Server) fanoutWrite(w http.ResponseWriter, r *http.Request, id string, owners []string, h http.HandlerFunc, isDelete bool) {
	var body []byte
	if !isDelete {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBody))
		if err != nil {
			status := requestErrorStatus(err)
			httpError(w, status, codeForRequestError(status), "reading archive: %v", err)
			return
		}
	}
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
				results[i] = s.applyLocal(r, i, body, h)
			} else {
				results[i] = s.applyRemote(r, peer, body)
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
	if acks >= quorum(len(owners)) {
		// The write succeeded with replicas missed: queue a hint per
		// failed replica (down or 5xx — a definitive 4xx rejection would
		// just repeat) so the write heals when the peer returns.
		for i, res := range results {
			if acked(res) || owners[i] == s.opts.Self ||
				(res.Status >= 400 && res.Status < 500) {
				continue
			}
			s.hints.Enqueue(owners[i], repair.Hint{
				Method: r.Method, ID: id, Path: r.URL.RequestURI(),
				Body: body, WriteTime: wt,
			})
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
	win := results[winner]
	if isDelete || len(win.body) == 0 {
		replay(w, win.header, win.Status, win.body)
		return
	}
	// Attach the per-replica outcomes to the entry JSON the winning
	// replica produced; an unparseable body just replays untouched.
	var doc map[string]any
	if err := json.Unmarshal(win.body, &doc); err != nil {
		replay(w, win.header, win.Status, win.body)
		return
	}
	doc["replicas"] = results
	out, err := json.Marshal(doc)
	if err != nil {
		replay(w, win.header, win.Status, win.body)
		return
	}
	hdr := win.header.Clone()
	hdr.Del("Content-Length")
	replay(w, hdr, win.Status, out)
}

// replay writes a recorded replica response to the client verbatim.
func replay(w http.ResponseWriter, hdr http.Header, status int, body []byte) {
	dst := w.Header()
	for k, vs := range hdr {
		if k == "Content-Length" {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
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

// peerDo is the one way this node calls a peer: method on
// http://peer+path, marked forwarded so the peer serves it from its own
// store (one hop). hdr, nil for none, is sent as is — peerDo takes
// ownership — and a non-nil body is sent with its length. A
// peerRequestError reports a request that never left this node.
func (s *Server) peerDo(ctx context.Context, method, peer, path string, hdr http.Header, body []byte) (*http.Response, error) {
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

// serveLocal runs h against this node's own store as replica idx of the
// archive's owner list, re-arming the request body from its buffered
// copy (nil when there was none to buffer).
func (s *Server) serveLocal(w http.ResponseWriter, r *http.Request, idx int, body []byte, h http.HandlerFunc) {
	w.Header().Set(ServedByHeader, s.opts.Self)
	w.Header().Set(ReplicaHeader, strconv.Itoa(idx))
	if body != nil {
		r = r.Clone(r.Context())
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
	}
	h(w, r)
}

// answered records the response one replica gave to a fanned-out write.
func answered(peer string, status int, hdr http.Header, body []byte) replicaResult {
	res := replicaResult{Peer: peer, Status: status, OK: status < 300, header: hdr, body: body}
	if !res.OK {
		res.Err = http.StatusText(status)
	}
	return res
}

// applyLocal runs the handler against this node's own store, recording
// the response it would have sent.
func (s *Server) applyLocal(r *http.Request, idx int, body []byte, h http.HandlerFunc) replicaResult {
	rec := newRecorder()
	s.serveLocal(rec, r, idx, body, h)
	return answered(s.opts.Self, rec.status, rec.Header(), rec.buf.Bytes())
}

// applyRemote sends the write to one peer replica and records the
// outcome in the peer's circuit breaker.
func (s *Server) applyRemote(r *http.Request, peer string, body []byte) replicaResult {
	s.forwarded.Add(1)
	br := s.health.Breaker(peer)
	resp, err := s.peerDo(r.Context(), r.Method, peer, r.URL.RequestURI(), r.Header.Clone(), body)
	if err != nil {
		if _, unsent := err.(peerRequestError); !unsent {
			br.Failure()
		}
		return replicaResult{Peer: peer, OK: false, Err: err.Error()}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		br.Failure()
		return replicaResult{Peer: peer, Status: resp.StatusCode, OK: false, Err: err.Error()}
	}
	if resp.StatusCode >= 500 {
		br.Failure()
	} else {
		br.Success()
	}
	return answered(peer, resp.StatusCode, resp.Header, data)
}

// readFailover serves a read by walking the archive's owner list —
// health-reordered so open-circuit peers go last — and failing over on
// transport errors, 5xx responses, and truncated bodies. A replica
// answering 404 is up but may be lagging (it missed the write), so the
// walk continues to the next replica; only when every reachable replica
// agrees the archive is gone does the 404 commit. A read served after
// one or more replicas 404'd triggers an asynchronous read repair: the
// archive is re-pushed from the replica that served it to the lagging
// owners (selfheal.go).
func (s *Server) readFailover(w http.ResponseWriter, r *http.Request, id string, owners []string, h http.HandlerFunc) {
	// Buffer a possible request body (POST /roi) once so every attempt
	// can resend it; the roi handler bounds it to 1 MiB itself, this is
	// just the outer cap.
	var body []byte
	if r.Body != nil && r.Method != http.MethodGet {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxBody))
		if err != nil {
			status := requestErrorStatus(err)
			httpError(w, status, codeForRequestError(status), "reading request body: %v", err)
			return
		}
	}
	ordered := s.health.Reorder(owners)
	waiter := retry.NewWaiter(s.opts.PeerRetry, nil)
	var (
		floor    time.Duration
		lastErr  string
		attempts int
		lagging  []string       // replicas that 404'd: up, but missing the archive
		notFound *replicaResult // the first definitive 404, replayed if no replica has it
	)
	for _, peer := range ordered {
		idx := indexOf(owners, peer)
		if peer == s.opts.Self {
			if _, _, ok := s.store.getRaw(id); !ok && len(owners) > 1 {
				// Our own store is missing the archive: we are the lagging
				// replica. Try the others before concluding it is gone.
				lagging = append(lagging, peer)
				continue
			}
			// Our own store is a replica: serve it directly. Local reads
			// have no transport to fail, so this always commits.
			s.serveLocal(w, r, idx, body, h)
			s.replicaHits.Add(1)
			if idx > 0 {
				s.failovers.Add(1)
			}
			s.spawnReadRepair(id, s.opts.Self, lagging)
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
		committed, nf, hint, errMsg := s.proxyRead(w, r, peer, body)
		if committed {
			br.Success()
			s.replicaHits.Add(1)
			if idx > 0 {
				s.failovers.Add(1)
			}
			s.spawnReadRepair(id, peer, lagging)
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
		s.serveLocal(w, r, indexOf(owners, s.opts.Self), body, h)
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
	resp, err := s.peerDo(r.Context(), r.Method, peer, r.URL.RequestURI(), r.Header.Clone(), body)
	if err != nil {
		return false, nil, 0, err.Error()
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		// The replica is up but failing; drain so the connection can be
		// reused, take its Retry-After as the backoff floor, move on.
		io.Copy(io.Discard, io.LimitReader(resp.Body, maxBufferedProxy))
		return false, nil, retry.RetryAfter(resp), peer + " answered " + resp.Status
	}
	if resp.StatusCode == http.StatusNotFound {
		// This replica is missing the archive — possibly lagging. Buffer
		// the envelope for the caller; another replica may still have it.
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxBufferedProxy))
		if err != nil {
			return false, nil, 0, "reading " + peer + " response: " + err.Error()
		}
		return false, &replicaResult{
			Peer: peer, Status: resp.StatusCode,
			header: resp.Header.Clone(), body: data,
		}, 0, ""
	}
	if resp.ContentLength >= 0 && resp.ContentLength <= maxBufferedProxy {
		// Small enough to verify before committing: a short or failed
		// body (a truncating peer, a dropped connection) stays invisible
		// to the client and the next replica gets its chance.
		data, err := io.ReadAll(resp.Body)
		if err != nil || int64(len(data)) != resp.ContentLength {
			if err == nil {
				err = io.ErrUnexpectedEOF
			}
			return false, nil, 0, "reading " + peer + " response: " + err.Error()
		}
		replay(w, resp.Header, resp.StatusCode, data)
		return true, nil, 0, ""
	}
	// Too large (or unknown length) to buffer: stream. Past this point a
	// body failure can only truncate the client's stream.
	dst := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		log.Printf("stzd: proxy read from %s: response copy: %v", peer, err)
	}
	return true, nil, 0, ""
}

// recorder captures a locally applied handler response so the write
// coordinator can fold it into the fan-out result (httptest stays out
// of production code).
type recorder struct {
	hdr    http.Header
	status int
	buf    bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: http.Header{}, status: http.StatusOK} }

func (rec *recorder) Header() http.Header { return rec.hdr }

func (rec *recorder) WriteHeader(status int) { rec.status = status }

func (rec *recorder) Write(p []byte) (int, error) { return rec.buf.Write(p) }
