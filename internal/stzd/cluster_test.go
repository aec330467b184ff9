package stzd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"stz/internal/codec"
	"stz/internal/datasets"
	"stz/internal/grid"
)

// testCluster starts an n-node in-process cluster with test cleanup.
func testCluster(t *testing.T, n int, o Options) *TestCluster {
	t.Helper()
	c := StartTestCluster(n, o)
	t.Cleanup(c.Close)
	return c
}

// statsOf fetches and decodes /v1/stats from one node.
func statsOf(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, body := do(t, http.MethodGet, base+"/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d (%s)", resp.StatusCode, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("stats not JSON: %v", err)
	}
	return m
}

// statNum digs a numeric field out of a decoded stats document.
func statNum(t *testing.T, stats map[string]any, section, field string) float64 {
	t.Helper()
	sec, ok := stats[section].(map[string]any)
	if !ok {
		t.Fatalf("stats has no %q section: %v", section, stats)
	}
	n, ok := sec[field].(float64)
	if !ok {
		t.Fatalf("stats %s.%s is not a number: %v", section, field, sec[field])
	}
	return n
}

// idOwnedBy finds an archive id the ring places on node want — forwarding
// tests need to know where an archive lands without caring which id.
func idOwnedBy(t *testing.T, c *TestCluster, want int) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("archive-%d", i)
		if c.Owner(id) == want {
			return id
		}
	}
	t.Fatalf("no id of 1000 owned by node %d", want)
	return ""
}

// TestClusterForwardingRoundTrip drives one archive through all three
// nodes of a cluster: PUT via A, box query via B, DELETE via C — while
// the consistent-hash owner is a fourth role held by one of them. Every
// response must be identical to single-node behavior, with
// X-Stz-Served-By naming the owner.
func TestClusterForwardingRoundTrip(t *testing.T) {
	c := testCluster(t, 3, Options{Workers: 1})
	g := datasets.Nyx(12, 12, 12, 9)
	enc, err := codec.Encode("sz3", g, codec.Config{EB: 0.05, Chunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	// An archive owned by node 1, driven through nodes 0 and 2.
	id := idOwnedBy(t, c, 1)

	// PUT via node 0 forwards to the owner.
	putArchive(t, c.URL(0), id, enc)

	// The owner's store has it; the other nodes' stores do not.
	if _, ok := c.Nodes[1].store.get(id); !ok {
		t.Fatalf("archive %q not in owner's store", id)
	}
	if _, ok := c.Nodes[0].store.get(id); ok {
		t.Fatalf("archive %q unexpectedly resident on the forwarding node", id)
	}

	// Box query via node 2: correct bytes, served by the owner.
	b := grid.Box{Z0: 2, Z1: 9, Y0: 1, Y1: 11, X0: 3, X1: 12}
	resp, body := do(t, http.MethodGet,
		c.URL(2)+"/v1/archives/"+id+"/box?box=2:9,1:11,3:12", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("box via peer: status %d (%s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get(ServedByHeader); got != c.Addrs[1] {
		t.Fatalf("X-Stz-Served-By = %q, want owner %q", got, c.Addrs[1])
	}
	ra, err := codec.OpenReaderAt[float32](enc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ra.DecompressBox(b)
	if err != nil {
		t.Fatal(err)
	}
	got := decode32(t, body)
	if len(got) != len(want.Data) {
		t.Fatalf("box returned %d values, want %d", len(got), len(want.Data))
	}
	for i := range got {
		if got[i] != want.Data[i] {
			t.Fatalf("box value %d: %v != %v", i, got[i], want.Data[i])
		}
	}

	// Metadata via the owner itself must not report a forward.
	resp, _ = do(t, http.MethodGet, c.URL(1)+"/v1/archives/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("info via owner: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(ServedByHeader); got != c.Addrs[1] {
		t.Fatalf("owner X-Stz-Served-By = %q, want %q", got, c.Addrs[1])
	}

	// The entry nodes counted their forwards; the owner forwarded nothing.
	if n := statNum(t, statsOf(t, c.URL(0)), "cluster", "forwarded"); n < 1 {
		t.Fatalf("node 0 forwarded = %v, want >= 1", n)
	}
	if n := statNum(t, statsOf(t, c.URL(1)), "cluster", "forwarded"); n != 0 {
		t.Fatalf("owner forwarded = %v, want 0", n)
	}

	// The same box twice through every node: each non-owner forwards both
	// reads, and the owner's hot-box tier decodes the box once in all.
	var before [3]float64
	for i := range before {
		before[i] = statNum(t, statsOf(t, c.URL(i)), "cluster", "forwarded")
	}
	for i := range before {
		for range 2 {
			resp, again := do(t, http.MethodGet, c.URL(i)+"/v1/archives/"+id+"/box?box=2:9,1:11,3:12", nil)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(again, body) {
				t.Fatalf("box via node %d: status %d, %d bytes, want 200 and the first read's %d",
					i, resp.StatusCode, len(again), len(body))
			}
		}
	}
	if n := statNum(t, statsOf(t, c.URL(1)), "box_cache", "decodes"); n != 1 {
		t.Fatalf("owner box decodes = %v after 7 reads of one box, want 1", n)
	}
	for i, want := range []float64{before[0] + 2, 0, before[2] + 2} {
		if n := statNum(t, statsOf(t, c.URL(i)), "cluster", "forwarded"); n != want {
			t.Fatalf("node %d forwarded = %v, want %v", i, n, want)
		}
	}

	// DELETE via node 2, then the archive is gone cluster-wide.
	resp, _ = do(t, http.MethodDelete, c.URL(2)+"/v1/archives/"+id, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete via peer: status %d", resp.StatusCode)
	}
	resp, body = do(t, http.MethodGet, c.URL(0)+"/v1/archives/"+id, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("info after delete: status %d", resp.StatusCode)
	}
	// The 404 envelope produced by the owner passes through verbatim.
	assertEnvelope(t, body, CodeUnknownArchive)
}

// TestClusterHopGuardRejectsMisdirected: a request already marked
// forwarded that lands on a non-owner is a topology disagreement — it
// must fail 421/not_owner instead of being forwarded again (loop guard).
func TestClusterHopGuardRejectsMisdirected(t *testing.T) {
	c := testCluster(t, 2, Options{})
	id := idOwnedBy(t, c, 0)
	nonOwner := 1

	req, err := http.NewRequest(http.MethodGet, c.URL(nonOwner)+"/v1/archives/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(ForwardedHeader, "bogus-peer:1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("status %d, want 421 (%s)", resp.StatusCode, body.Bytes())
	}
	assertEnvelope(t, body.Bytes(), CodeNotOwner)
	if n := statNum(t, statsOf(t, c.URL(nonOwner)), "cluster", "not_owner"); n != 1 {
		t.Fatalf("not_owner counter = %v, want 1", n)
	}
}

// TestClusterForwardsErrorEnvelopes: error envelopes minted by the owner
// stream back through the forwarding node byte-for-byte, so a client sees
// the same code and retryability regardless of which node it asked.
func TestClusterForwardsErrorEnvelopes(t *testing.T) {
	c := testCluster(t, 2, Options{})
	id := idOwnedBy(t, c, 0)

	direct, directBody := do(t, http.MethodGet, c.URL(0)+"/v1/archives/"+id, nil)
	viaPeer, peerBody := do(t, http.MethodGet, c.URL(1)+"/v1/archives/"+id, nil)
	if direct.StatusCode != http.StatusNotFound || viaPeer.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d direct / %d via peer, want 404/404", direct.StatusCode, viaPeer.StatusCode)
	}
	assertEnvelope(t, peerBody, CodeUnknownArchive)
	if !bytes.Equal(directBody, peerBody) {
		t.Fatalf("forwarded envelope differs:\ndirect: %s\nvia peer: %s", directBody, peerBody)
	}
	if got := viaPeer.Header.Get(ServedByHeader); got != c.Addrs[0] {
		t.Fatalf("X-Stz-Served-By = %q, want owner %q", got, c.Addrs[0])
	}
}

// TestSingleFlightCollapsesBoxDecodes fires K concurrent queries for the
// same cold box and asserts the decode counter advanced exactly once:
// the single-flight leader decodes, everyone else shares, and the result
// cache absorbs any stragglers.
func TestSingleFlightCollapsesBoxDecodes(t *testing.T) {
	const k = 16
	ts := testServer(t, Options{Workers: 1, MaxInflight: k})
	g := datasets.Nyx(32, 32, 32, 21)
	enc, err := codec.Encode("sz3", g, codec.Config{EB: 1e-3, Chunks: 4})
	if err != nil {
		t.Fatal(err)
	}
	putArchive(t, ts.URL, "hot", enc)

	url := ts.URL + "/v1/archives/hot/box?box=4:28,0:32,8:24"
	var (
		start  = make(chan struct{})
		wg     sync.WaitGroup
		mu     sync.Mutex
		bodies [][]byte
	)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Get(url)
			if err != nil {
				t.Error(err)
				return
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d (%s)", resp.StatusCode, buf.Bytes())
				return
			}
			mu.Lock()
			bodies = append(bodies, buf.Bytes())
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(bodies) != k {
		t.Fatalf("%d responses, want %d", len(bodies), k)
	}
	for i := 1; i < k; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("response %d differs from response 0", i)
		}
	}

	stats := statsOf(t, ts.URL)
	if n := statNum(t, stats, "box_cache", "decodes"); n != 1 {
		t.Fatalf("box decodes = %v, want exactly 1 for %d concurrent queries", n, k)
	}

	// A follow-up query is a pure cache hit: no archive bytes read.
	resp, _ := do(t, http.MethodGet, url, nil)
	if got := resp.Header.Get("X-Stz-Cache"); got != "hit" {
		t.Fatalf("X-Stz-Cache = %q after warm query, want \"hit\"", got)
	}
	if got := resp.Header.Get("X-Stz-Read-Bytes"); got != "0" {
		t.Fatalf("X-Stz-Read-Bytes = %q on a cache hit, want 0", got)
	}
	if n := statNum(t, statsOf(t, ts.URL), "box_cache", "decodes"); n != 1 {
		t.Fatalf("box decodes = %v after warm query, want still 1", n)
	}
}

// TestSingleFlightSaturatedPoolEnvelope: when the job pool is saturated,
// box queries (like every admission-gated endpoint) answer 503 with the
// pool_saturated envelope and a Retry-After hint.
func TestSingleFlightSaturatedPoolEnvelope(t *testing.T) {
	s := New(Options{Workers: 1, MaxInflight: 1, AdmissionWait: 5 * time.Millisecond})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	g := datasets.Nyx(8, 8, 8, 2)
	enc, err := codec.Encode("sz3", g, codec.Config{EB: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	putArchive(t, ts.URL, "sat", enc)

	// Occupy the only job slot, then every decode path must refuse.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	resp, body := do(t, http.MethodGet, ts.URL+"/v1/archives/sat/box?box=0:8,0:8,0:8", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("saturated response missing Retry-After")
	}
	assertEnvelope(t, body, CodePoolSaturated)
}

// TestAcquireHonorsRequestDeadline: admission waits are clamped to the
// request's context deadline, so a nearly-expired request fails fast
// instead of pinning the admission queue for the full AdmissionWait.
func TestAcquireHonorsRequestDeadline(t *testing.T) {
	s := New(Options{MaxInflight: 1, AdmissionWait: 30 * time.Second})
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	r := httptest.NewRequest(http.MethodGet, "/v1/archives/x/box", nil).WithContext(ctx)
	startT := time.Now()
	if s.acquire(r) {
		t.Fatal("acquire succeeded with a full pool")
	}
	if elapsed := time.Since(startT); elapsed > 5*time.Second {
		t.Fatalf("acquire waited %v, want the ~50ms context deadline", elapsed)
	}

	// An already-expired deadline is refused without waiting at all.
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	r2 := httptest.NewRequest(http.MethodGet, "/v1/compress", nil).WithContext(expired)
	startT = time.Now()
	if s.acquire(r2) {
		t.Fatal("acquire succeeded with a full pool and expired deadline")
	}
	if elapsed := time.Since(startT); elapsed > time.Second {
		t.Fatalf("expired-deadline acquire waited %v, want immediate refusal", elapsed)
	}
}
