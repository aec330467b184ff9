package stzd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stz/internal/grid"
	"stz/internal/retry"
)

// The self-healing acceptance tests: hinted handoff replays a write
// that missed a down replica, read repair refills a lagging replica
// that 404s a failover read, anti-entropy re-converges a wiped node,
// and DELETE tombstones stop any of those paths from resurrecting a
// deleted archive. All run real multi-node clusters over localhost
// HTTP; names carry Hint/Repair/AntiEntropy/Manifest so the CI race leg
// (-run 'Repair|Hint|AntiEntropy|Manifest') picks them up.

// selfhealOpts is the shared cluster tuning: hair-trigger breakers with
// short cooldowns, fast hint retries, and retry backoff measured in
// milliseconds so recovery converges within test timeouts.
func selfhealOpts() Options {
	return Options{
		Workers:          1,
		BreakerThreshold: 1,
		BreakerCooldown:  100 * time.Millisecond,
		PeerRetry: retry.Policy{
			BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond,
			MaxAttempts: 4, Budget: time.Second,
		},
		HintRetryInterval:   50 * time.Millisecond,
		AntiEntropyInterval: -1, // each test opts in explicitly
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// idPrimaryOn finds an id whose R-replica owner list starts with node
// primary (every node is an owner when r equals the cluster size).
func idPrimaryOn(t *testing.T, c *TestCluster, r, primary int) string {
	t.Helper()
	for i := 0; i < 2000; i++ {
		id := fmt.Sprintf("healed-%d", i)
		if c.Nodes[0].ring.Owners(id, r)[0] == c.Addrs[primary] {
			return id
		}
	}
	t.Fatalf("no id of 2000 with primary %d", primary)
	return ""
}

// forwardedWrite applies a PUT or DELETE directly to one node's store
// (bypassing fan-out) with an explicit LWW timestamp — how tests build
// divergent replicas on demand.
func forwardedWrite(t *testing.T, base, method, id string, body []byte, wt int64) *http.Response {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+"/v1/archives/"+id, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(ForwardedHeader, "test-harness:0")
	req.Header.Set(WriteTimeHeader, strconv.FormatInt(wt, 10))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestHintedHandoffReplaysOnRecovery is the headline scenario: a PUT
// coordinated while one owner is down succeeds on the surviving quorum
// and queues a hint, and box reads through either survivor return the
// archive's bytes meanwhile; when the owner comes back the hint replays,
// and the revived node serves the archive from its own store.
func TestHintedHandoffReplaysOnRecovery(t *testing.T) {
	o := selfhealOpts()
	o.Replicas = 3
	c := testCluster(t, 3, o)
	const victim = 1
	coord := 0
	id := idPrimaryOn(t, c, 3, victim)
	enc, _ := encodeGrid(t, 21)

	c.Stop(victim)
	putArchive(t, c.URL(coord), id, enc) // 2/3 acks: quorum, one miss

	st := statsOf(t, c.URL(coord))
	rep, ok := st["repair"].(map[string]any)
	if !ok {
		t.Fatalf("stats has no repair section: %v", st)
	}
	hints, ok := rep["hints"].(map[string]any)
	if !ok || hints["queued"].(float64) != 1 || hints["backlog_count"].(float64) != 1 {
		t.Fatalf("hints = %v, want queued 1 backlog 1", rep["hints"])
	}
	// The backlog also surfaces in the coordinator's health probe.
	resp, body := do(t, http.MethodGet, c.URL(coord)+"/healthz", nil)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"hint_backlog":1`)) {
		t.Fatalf("healthz = %d %s, want hint_backlog 1", resp.StatusCode, body)
	}

	// Reads stay whole during the outage: each survivor holds a replica.
	want := boxBytes(t, enc, grid.Box{Z0: 2, Z1: 10, Y0: 1, Y1: 9, X0: 0, X1: 12})
	for _, i := range []int{0, 2} {
		resp, body := do(t, http.MethodGet, c.URL(i)+"/v1/archives/"+id+"/box?box=2:10,1:9,0:12", nil)
		if resp.StatusCode != http.StatusOK || !slices.Equal(decode32(t, body), want) {
			t.Fatalf("box via survivor %d during the outage: status %d (%d bytes), want 200 and the box's %d values",
				i, resp.StatusCode, len(body), len(want))
		}
	}

	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "hint replay to the revived owner", func() bool {
		_, _, ok := c.Nodes[victim].store.getRaw(id)
		return ok
	})
	// The coordinator acks the hint when the replay's response is back,
	// which can be after the revived owner has stored the archive.
	waitFor(t, 5*time.Second, "the coordinator's ack of the replayed hint", func() bool {
		hints := statsOf(t, c.URL(coord))["repair"].(map[string]any)["hints"].(map[string]any)
		return hints["backlog_count"].(float64) == 0
	})

	// The revived node answers for its own store — no forwarding.
	resp, _ = do(t, http.MethodGet, c.URL(victim)+"/v1/archives/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("info from revived owner: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(ServedByHeader); got != c.Addrs[victim] {
		t.Fatalf("X-Stz-Served-By = %q, want the revived node %q", got, c.Addrs[victim])
	}
	st = statsOf(t, c.URL(coord))
	hints = st["repair"].(map[string]any)["hints"].(map[string]any)
	if hints["replayed"].(float64) != 1 || hints["backlog_count"].(float64) != 0 {
		t.Fatalf("hints after replay = %v, want replayed 1 backlog 0", hints)
	}
}

// TestReadRepairFillsLaggingReplica: a primary that missed a write
// answers 404 to a failover read; the read is served by the replica
// that has the archive, and the lagging primary is asynchronously
// refilled so the next read lands on it directly.
func TestReadRepairFillsLaggingReplica(t *testing.T) {
	o := selfhealOpts()
	o.Replicas = 2
	c := testCluster(t, 3, o)
	// Owners [primary, secondary]; the coordinator is neither.
	const primary = 0
	id := idPrimaryOn(t, c, 2, primary)
	owners := c.Nodes[0].ring.Owners(id, 2)
	secondary := indexOf(c.Addrs, owners[1])
	coord := 3 - primary - secondary
	enc, _ := encodeGrid(t, 22)

	// Seed only the secondary: the primary is now a lagging replica.
	wt := time.Now().UnixNano()
	if resp := forwardedWrite(t, c.URL(secondary), http.MethodPut, id, enc, wt); resp.StatusCode != http.StatusCreated {
		t.Fatalf("seeding secondary: status %d", resp.StatusCode)
	}

	// A read through the coordinator fails over past the primary's 404
	// and serves from the secondary.
	resp, _ := do(t, http.MethodGet, c.URL(coord)+"/v1/archives/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover read: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(ServedByHeader); got != c.Addrs[secondary] {
		t.Fatalf("X-Stz-Served-By = %q, want secondary %q", got, c.Addrs[secondary])
	}

	// Read repair refills the primary in the background.
	waitFor(t, 5*time.Second, "read repair to refill the primary", func() bool {
		_, _, ok := c.Nodes[primary].store.getRaw(id)
		return ok
	})
	if n := statNum(t, statsOf(t, c.URL(coord)), "repair", "read_repairs"); n != 1 {
		t.Fatalf("read_repairs = %v, want 1", n)
	}
	// The healed primary now serves reads itself.
	resp, _ = do(t, http.MethodGet, c.URL(coord)+"/v1/archives/"+id, nil)
	if got := resp.Header.Get(ServedByHeader); got != c.Addrs[primary] {
		t.Fatalf("post-repair X-Stz-Served-By = %q, want primary %q", got, c.Addrs[primary])
	}
}

// TestReadRepairAll404 is the no-resurrection guard on the read path:
// when every replica is missing the archive the read commits the 404
// envelope verbatim and repairs nothing.
func TestReadRepairAll404(t *testing.T) {
	o := selfhealOpts()
	o.Replicas = 2
	c := testCluster(t, 3, o)
	resp, body := do(t, http.MethodGet, c.URL(0)+"/v1/archives/never-stored", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d (%s), want 404", resp.StatusCode, body)
	}
	assertEnvelope(t, body, CodeUnknownArchive)
}

// TestAntiEntropyConvergesWipedNode: a replica that restarts with an
// empty store (no hint ever queued — the write never failed) is
// refilled by its peers' manifest-diff sweeps.
func TestAntiEntropyConvergesWipedNode(t *testing.T) {
	o := selfhealOpts()
	o.Replicas = 3
	o.BreakerThreshold = 2
	o.AntiEntropyInterval = 100 * time.Millisecond
	c := testCluster(t, 3, o)
	const victim = 2
	id := idPrimaryOn(t, c, 3, victim)
	enc, _ := encodeGrid(t, 23)
	putArchive(t, c.URL(0), id, enc) // all three replicas ack

	c.Stop(victim)
	if err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Nodes[victim].store.getRaw(id); ok {
		t.Fatal("restarted node should come back empty")
	}
	waitFor(t, 10*time.Second, "anti-entropy to refill the wiped node", func() bool {
		_, _, ok := c.Nodes[victim].store.getRaw(id)
		return ok
	})

	// The sweeps that ran surface in stats on the pushing side. A round
	// books its counters when it completes, which can trail the push the
	// refill above observed, so wait for them rather than read them once.
	waitFor(t, 5*time.Second, "a completed round on every survivor and a repair on one", func() bool {
		rounds, healed := true, false
		for i := 0; i < 3; i++ {
			if i == victim {
				continue
			}
			st := statsOf(t, c.URL(i))
			ae, ok := st["repair"].(map[string]any)["anti_entropy"].(map[string]any)
			if !ok {
				t.Fatalf("node %d stats missing anti_entropy: %v", i, st["repair"])
			}
			rounds = rounds && ae["rounds"].(float64) >= 1
			healed = healed || ae["repaired"].(float64) >= 1 && ae["divergences"].(float64) >= 1
		}
		return rounds && healed
	})
}

// TestAntiEntropyTombstoneNoResurrect: one replica holds the archive,
// the other holds a newer tombstone. The sweep must converge both sides
// to "deleted" — the tombstone propagates; the stale copy must never
// flow back.
func TestAntiEntropyTombstoneNoResurrect(t *testing.T) {
	o := selfhealOpts()
	o.Replicas = 2
	o.AntiEntropyInterval = 100 * time.Millisecond
	c := testCluster(t, 2, o)
	id := idPrimaryOn(t, c, 2, 0)
	enc, _ := encodeGrid(t, 24)

	t1 := time.Now().UnixNano()
	t2 := t1 + 1
	// Both replicas store version t1; only node 0 sees the delete at t2.
	for i := 0; i < 2; i++ {
		if resp := forwardedWrite(t, c.URL(i), http.MethodPut, id, enc, t1); resp.StatusCode != http.StatusCreated {
			t.Fatalf("seeding node %d: status %d", i, resp.StatusCode)
		}
	}
	if resp := forwardedWrite(t, c.URL(0), http.MethodDelete, id, nil, t2); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("tombstoning node 0: status %d", resp.StatusCode)
	}

	waitFor(t, 10*time.Second, "the tombstone to reach the other replica", func() bool {
		_, _, ok := c.Nodes[1].store.getRaw(id)
		return !ok
	})
	// Let more sweep rounds run in both directions: the archive must not
	// reappear on either side.
	time.Sleep(400 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if _, _, ok := c.Nodes[i].store.getRaw(id); ok {
			t.Fatalf("archive resurrected on node %d", i)
		}
	}
	resp, body := do(t, http.MethodGet, c.URL(0)+"/v1/archives/"+id, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("read after tombstone convergence: status %d (%s)", resp.StatusCode, body)
	}
}

// TestHintReplayRespectsNewerWrite: a hint whose archive was rewritten
// (newer version) before the peer recovered must not clobber the newer
// state — the replay gets 409 stale_write and the hint resolves.
func TestHintReplayRespectsNewerWrite(t *testing.T) {
	o := selfhealOpts()
	o.Replicas = 2
	c := testCluster(t, 2, o)
	id := idPrimaryOn(t, c, 2, 0)
	encOld, _ := encodeGrid(t, 25)
	encNew, _ := encodeGrid(t, 26)

	// Node 1 already holds a version from the future; a stale hint replay
	// against it must be rejected, not applied.
	wt := time.Now().UnixNano()
	if resp := forwardedWrite(t, c.URL(1), http.MethodPut, id, encNew, wt+int64(time.Hour)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("seeding future version: status %d", resp.StatusCode)
	}
	if resp := forwardedWrite(t, c.URL(1), http.MethodPut, id, encOld, wt); resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale direct write: status %d, want 409", resp.StatusCode)
	}
	raw, mtime, ok := c.Nodes[1].store.getRaw(id)
	if !ok || mtime != wt+int64(time.Hour) || !bytes.Equal(raw, encNew) {
		t.Fatal("stale write clobbered the newer version")
	}
}

// TestManifestEndpoint: the node digest lists resident archives with
// write-time, length, and checksum, and deleted ids as tombstones. Every
// sum is the 16-hex-digit FNV-64a of the bytes the node stores, though it
// is computed on the first manifest rather than on the write, and the
// document is the same bytes for the same store contents.
func TestManifestEndpoint(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	enc, _ := encodeGrid(t, 27)
	other, _ := encodeGrid(t, 28)
	putArchive(t, ts.URL, "kept", enc)
	putArchive(t, ts.URL, "gone", enc)
	putArchive(t, ts.URL, "replaced", enc)
	putArchive(t, ts.URL, "replaced", other)
	if resp, _ := do(t, http.MethodDelete, ts.URL+"/v1/archives/gone", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}

	resp, body := do(t, http.MethodGet, ts.URL+"/v1/manifest", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("manifest: status %d (%s)", resp.StatusCode, body)
	}
	var m manifestJSON
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("manifest not JSON: %v (%s)", err, body)
	}
	e, ok := m.Archives["kept"]
	if !ok {
		t.Fatalf("manifest missing kept archive: %+v", m)
	}
	if e.Bytes != int64(len(enc)) || e.MTime <= 0 || len(e.Sum) != 16 {
		t.Fatalf("manifest entry = %+v, want %d bytes, positive mtime, 16-hex sum", e, len(enc))
	}
	if len(m.Archives) != 2 {
		t.Fatalf("manifest lists %d archives, want kept and replaced: %+v", len(m.Archives), m.Archives)
	}
	for id, e := range m.Archives {
		raw, _, ok := s.store.getRaw(id)
		if !ok {
			t.Fatalf("manifest lists %q, which the store does not hold", id)
		}
		if want := fnvHex(raw); e.Sum != want || e.Bytes != int64(len(raw)) {
			t.Fatalf("manifest[%q] = %+v, want sum %s of the %d stored bytes", id, e, want, len(raw))
		}
	}
	if _, ok := m.Archives["gone"]; ok {
		t.Fatal("deleted archive still listed in manifest")
	}
	if _, ok := m.Tombstones["gone"]; !ok {
		t.Fatalf("manifest missing tombstone for deleted id: %+v", m.Tombstones)
	}
	if _, again := do(t, http.MethodGet, ts.URL+"/v1/manifest", nil); !bytes.Equal(again, body) {
		t.Fatalf("a second manifest of the same store differs:\n%s\n%s", body, again)
	}
}

// fnvHex is the manifest's spelling of data's checksum: its FNV-64a as
// 16 hex digits.
func fnvHex(data []byte) string {
	h := fnv.New64a()
	h.Write(data)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestManifestUnderWrites: manifests taken while PUTs and DELETEs replace
// and remove the same ids only ever list a (length, sum) pair of an
// archive that was written. Run under -race it checks that an entry's
// lazily computed sum is safe beside the writes.
func TestManifestUnderWrites(t *testing.T) {
	st := newArchiveStore(1<<30, 4, 1)
	var archives [3][]byte
	written := map[manifestEntry]bool{}
	for i := range archives {
		archives[i], _ = encodeGrid(t, int64(40+i))
		written[manifestEntry{Bytes: int64(len(archives[i])), Sum: fnvHex(archives[i])}] = true
	}
	ids := []string{"a", "b", "c", "d"}
	var clock atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				id := ids[(i+w)%len(ids)]
				if i%5 == 4 {
					st.delete(id, clock.Add(1))
					continue
				}
				if _, _, err := st.put(id, archives[(i+w)%len(archives)], clock.Add(1)); err != nil && !errors.Is(err, errStaleWrite) {
					t.Errorf("put %s: %v", id, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				got, _ := st.manifest()
				for id, e := range got {
					if !written[manifestEntry{Bytes: e.Bytes, Sum: e.Sum}] {
						t.Errorf("manifest[%q] = %+v: no archive written has this length and sum", id, e)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// manifestPeer is a fake co-owner: it answers GET /v1/manifest with doc
// and every other request — a push — with 201, recording it.
type manifestPeer struct {
	doc    []byte
	pushes []string // "METHOD path" of each request other than the manifest fetch
}

func (p *manifestPeer) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	status, body := http.StatusCreated, []byte(nil)
	if req.Method == http.MethodGet && req.URL.Path == "/v1/manifest" {
		status, body = http.StatusOK, p.doc
	} else {
		p.pushes = append(p.pushes, req.Method+" "+req.URL.Path)
	}
	return &http.Response{
		Status: http.StatusText(status), StatusCode: status,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Header: http.Header{},
		Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body)), Request: req,
	}, nil
}

// FuzzManifest feeds arbitrary bytes as a co-owner's /v1/manifest answer
// through one anti-entropy round (fetch, parse, diffAndPush) of a node
// holding two archives and a tombstone. Nothing may panic; a document
// that does not decode pushes and deletes nothing, here or at the peer;
// and any push names an id this node held — a PUT an archive, a DELETE a
// tombstone.
func FuzzManifest(f *testing.F) {
	a, _ := encodeGrid(f, 50)
	b, _ := encodeGrid(f, 51)
	for _, doc := range []string{
		`{"archives":{},"tombstones":{}}`,
		`{"archives":{"a":{"mtime":10,"bytes":1,"sum":"ffffffffffffffff"},"b":{"mtime":99,"bytes":1,"sum":"00"}}}`,
		`{"archives":{"a":{"mtime":5}},"tombstones":{"b":99}}`,
		`{"archives":{"c":{"mtime":1,"bytes":3,"sum":"0000000000000001"}},"tombstones":{"a":10}}`,
		`null`,
		``,
		`not json`,
		`{"archives":[]}`,
		`{"archives":{"a":{"mtime":"10"}}}`,
		`{"archives":{"a":null},"tombstones":{"a":-1}}`,
		`{"tombstones":{"b":20}} trailing`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		peer := &manifestPeer{doc: doc}
		s := New(Options{
			Workers: 1, Self: "self:1", Peers: []string{"self:1", "peer:1"}, Replicas: 2,
			AntiEntropyInterval: -1, HintRetryInterval: time.Hour,
			WrapTransport: func(http.RoundTripper) http.RoundTripper { return peer },
		})
		defer s.Close()
		if _, _, err := s.store.put("a", a, 10); err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.store.put("b", b, 20); err != nil {
			t.Fatal(err)
		}
		s.store.delete("c", 30)
		archives, tombs := s.store.manifest()

		s.antiEntropyRound()

		if json.Unmarshal(doc, new(manifestJSON)) != nil {
			if len(peer.pushes) > 0 {
				t.Fatalf("an undecodable manifest drew pushes %v", peer.pushes)
			}
			after, afterTombs := s.store.manifest()
			if !maps.Equal(after, archives) || !maps.Equal(afterTombs, tombs) {
				t.Fatalf("an undecodable manifest changed the local store: %v %v, was %v %v", after, afterTombs, archives, tombs)
			}
		}
		for _, p := range peer.pushes {
			method, id, _ := strings.Cut(p, " /v1/archives/")
			_, isArchive := archives[id]
			_, isTomb := tombs[id]
			if (method == http.MethodPut && !isArchive) || (method == http.MethodDelete && !isTomb) ||
				(method != http.MethodPut && method != http.MethodDelete) {
				t.Fatalf("push %q names nothing this node held (archives %v, tombstones %v)", p, archives, tombs)
			}
		}
	})
}

// TestFetchManifestBounded: a peer's manifest is untrusted input, read
// under the same -max-body cap as a raw archive fetch, and — like every
// peer call — sent with the forwarded marker.
func TestFetchManifestBounded(t *testing.T) {
	const maxBody = 4 << 10
	var body []byte
	var forwardedBy string
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		forwardedBy = r.Header.Get(ForwardedHeader)
		w.Write(body)
	}))
	defer peer.Close()
	addr := strings.TrimPrefix(peer.URL, "http://")
	s := New(Options{Self: "self:1", Peers: []string{addr}, MaxBody: maxBody, AntiEntropyInterval: -1})
	defer s.Close()

	body = []byte(`{"archives":{"a":{"mtime":7,"bytes":1,"sum":"00"}},"tombstones":{}}` + "\n")
	m, ok := s.fetchManifest(addr)
	if !ok || m.Archives["a"].MTime != 7 {
		t.Fatalf("in-bound manifest refused: ok=%v %+v", ok, m)
	}
	if forwardedBy != "self:1" {
		t.Fatalf("manifest fetch forwarded by %q, want self:1", forwardedBy)
	}
	body = append([]byte(`{"archives":{"a":{"mtime":7,"bytes":1,"sum":"`), bytes.Repeat([]byte("0"), maxBody)...)
	body = append(body, `"}}}`...)
	if _, ok := s.fetchManifest(addr); ok {
		t.Fatalf("a %d-byte manifest was buffered past the %d-byte cap", len(body), maxBody)
	}
}

// TestRepairFanoutDelete404Ack is the idempotent-DELETE bugfix: a
// replica that already lost the archive answers 404 to the fanned-out
// DELETE, which must count toward the quorum (the archive being gone is
// the goal state), not produce a spurious 503.
func TestRepairFanoutDelete404Ack(t *testing.T) {
	o := selfhealOpts()
	o.Replicas = 2
	c := testCluster(t, 3, o)
	id := idPrimaryOn(t, c, 2, 0)
	owners := c.Nodes[0].ring.Owners(id, 2)
	secondary := indexOf(c.Addrs, owners[1])
	enc, _ := encodeGrid(t, 28)
	putArchive(t, c.URL(0), id, enc)

	// The secondary loses its copy out-of-band.
	if resp := forwardedWrite(t, c.URL(secondary), http.MethodDelete, id, nil, time.Now().UnixNano()); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("out-of-band delete: status %d", resp.StatusCode)
	}

	// The cluster-wide DELETE sees one 204 and one 404 — two acks, 204.
	resp, body := do(t, http.MethodDelete, c.URL(0)+"/v1/archives/"+id, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("fanout delete with one lagging replica: status %d (%s), want 204", resp.StatusCode, body)
	}
	// A delete of an id that never existed is a clean 404, not a 503.
	resp, body = do(t, http.MethodDelete, c.URL(0)+"/v1/archives/never-there", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fanout delete of absent id: status %d (%s), want 404", resp.StatusCode, body)
	}
	assertEnvelope(t, body, CodeUnknownArchive)
}

// TestRepairHarnessStopRestart pins the harness contract the recovery
// suite leans on: Stop kills a node's listener, Restart revives it on
// the SAME address with a fresh store, and the rest of the cluster is
// untouched throughout.
func TestRepairHarnessStopRestart(t *testing.T) {
	o := selfhealOpts()
	o.Replicas = 2
	c := testCluster(t, 2, o)
	urlBefore := c.URL(1)
	id := idPrimaryOn(t, c, 2, 1)
	enc, _ := encodeGrid(t, 29)
	if resp := forwardedWrite(t, c.URL(1), http.MethodPut, id, enc, time.Now().UnixNano()); resp.StatusCode != http.StatusCreated {
		t.Fatalf("seed: status %d", resp.StatusCode)
	}

	c.Stop(1)
	if _, err := http.Get(urlBefore + "/healthz"); err == nil {
		t.Fatal("stopped node still answering")
	}
	// The surviving node is unaffected.
	if resp, _ := do(t, http.MethodGet, c.URL(0)+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("surviving node health: status %d", resp.StatusCode)
	}

	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	if c.URL(1) != urlBefore {
		t.Fatalf("restarted on %q, want original address %q", c.URL(1), urlBefore)
	}
	resp, _ := do(t, http.MethodGet, c.URL(1)+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted node health: status %d", resp.StatusCode)
	}
	if _, _, ok := c.Nodes[1].store.getRaw(id); ok {
		t.Fatal("restart kept the old store; want a wiped node")
	}
}
