package stzd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stz/internal/codec"
	"stz/internal/datasets"
	"stz/internal/faultinject"
	"stz/internal/grid"
	"stz/internal/rawio"
	"stz/internal/retry"
)

// faultyCluster starts an n-node cluster whose peer transports are all
// wrapped with per-node fault injectors (inert until rules are Set), so
// faults can be switched on after setup traffic completes.
func faultyCluster(t *testing.T, n int, o Options) (*TestCluster, []*faultinject.Transport) {
	t.Helper()
	fis := make([]*faultinject.Transport, n)
	c := StartTestClusterOpts(n, o, func(i int, addrs []string, no *Options) {
		no.WrapTransport = func(rt http.RoundTripper) http.RoundTripper {
			fis[i] = faultinject.New(rt, int64(1000+i))
			return fis[i]
		}
	})
	t.Cleanup(c.Close)
	return c, fis
}

// idWithOwners finds an archive id whose R-replica owner set has node
// primary first and does not contain node exclude.
func idWithOwners(t *testing.T, c *TestCluster, r, primary, exclude int) (string, []string) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		id := fmt.Sprintf("replicated-%d", i)
		owners := c.Nodes[0].ring.Owners(id, r)
		if owners[0] != c.Addrs[primary] {
			continue
		}
		if indexOf(owners, c.Addrs[exclude]) >= 0 {
			continue
		}
		return id, owners
	}
	t.Fatalf("no id of 2000 with primary %d excluding %d", primary, exclude)
	return "", nil
}

// encodeGrid builds a small deterministic archive for replication tests.
func encodeGrid(t testing.TB, seed int64) ([]byte, *grid.Grid[float32]) {
	t.Helper()
	g := datasets.Nyx(12, 12, 12, seed)
	enc, err := codec.Encode("sz3", g, codec.Config{EB: 0.05, Chunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	return enc, g
}

// boxBytes decodes the expected raw payload of a box query against enc.
func boxBytes(t *testing.T, enc []byte, b grid.Box) []float32 {
	t.Helper()
	ra, err := codec.OpenReaderAt[float32](enc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ra.DecompressBox(b)
	if err != nil {
		t.Fatal(err)
	}
	return want.Data
}

// TestClusterReplicatedPut: with -replicas 2 a PUT coordinated by a
// non-owner lands the archive on both owners (and nowhere else), the
// response reports both replica acks, and a DELETE removes every copy.
func TestClusterReplicatedPut(t *testing.T) {
	c, _ := faultyCluster(t, 3, Options{Workers: 1, Replicas: 2})
	id, owners := idWithOwners(t, c, 2, 0, 2)
	entry := 2
	enc, _ := encodeGrid(t, 9)

	resp, body := do(t, http.MethodPut, c.URL(entry)+"/v1/archives/"+id, bytes.NewReader(enc))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("replicated PUT: status %d (%s)", resp.StatusCode, body)
	}
	var putDoc struct {
		ID       string `json:"id"`
		Replicas []struct {
			Peer   string `json:"peer"`
			Status int    `json:"status"`
			OK     bool   `json:"ok"`
		} `json:"replicas"`
	}
	if err := json.Unmarshal(body, &putDoc); err != nil {
		t.Fatalf("PUT response not JSON: %v (%s)", err, body)
	}
	if putDoc.ID != id || len(putDoc.Replicas) != 2 {
		t.Fatalf("PUT response = %+v, want id %q with 2 replica results", putDoc, id)
	}
	for _, rep := range putDoc.Replicas {
		if !rep.OK || rep.Status != http.StatusCreated {
			t.Fatalf("replica result %+v, want ok 201", rep)
		}
		if indexOf(owners, rep.Peer) < 0 {
			t.Fatalf("replica result from %q, not an owner of %q (%v)", rep.Peer, id, owners)
		}
	}

	// Resident on both owners, absent from the coordinator.
	for i := range c.Nodes {
		_, resident := c.Nodes[i].store.get(id)
		wantResident := indexOf(owners, c.Addrs[i]) >= 0
		if resident != wantResident {
			t.Fatalf("node %d resident=%v, want %v", i, resident, wantResident)
		}
	}

	// A read through the coordinator is served by the primary replica.
	b := grid.Box{Z0: 2, Z1: 9, Y0: 1, Y1: 11, X0: 3, X1: 12}
	resp, body = do(t, http.MethodGet, c.URL(entry)+"/v1/archives/"+id+"/box?box=2:9,1:11,3:12", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replicated box read: status %d (%s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get(ServedByHeader); got != owners[0] {
		t.Fatalf("X-Stz-Served-By = %q, want primary %q", got, owners[0])
	}
	if got := resp.Header.Get(ReplicaHeader); got != "0" {
		t.Fatalf("X-Stz-Replica = %q, want 0", got)
	}
	want := boxBytes(t, enc, b)
	got := decode32(t, body)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("box value %d: %v != %v", i, got[i], want[i])
		}
	}

	// DELETE through the coordinator removes every replica.
	resp, _ = do(t, http.MethodDelete, c.URL(entry)+"/v1/archives/"+id, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("replicated DELETE: status %d", resp.StatusCode)
	}
	for i := range c.Nodes {
		if _, resident := c.Nodes[i].store.get(id); resident {
			t.Fatalf("node %d still has %q after replicated DELETE", i, id)
		}
	}
	resp, body = do(t, http.MethodGet, c.URL(entry)+"/v1/archives/"+id, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("info after replicated delete: status %d (%s)", resp.StatusCode, body)
	}
	assertEnvelope(t, body, CodeUnknownArchive)
}

// TestFailoverReadsSurviveFaultyPeer is the acceptance scenario: a
// 3-node R=2 cluster with the primary replica's peer at 100% fault rate
// (a mix of connect errors, 5xx, and truncated bodies) must serve every
// read of a replicated archive with zero client-visible 5xx — reads
// fail over to the healthy replica, the faulty peer's breaker opens,
// and /healthz reports the degradation.
func TestFailoverReadsSurviveFaultyPeer(t *testing.T) {
	const faulty, entry = 0, 2
	o := Options{
		Workers: 1, Replicas: 2,
		BreakerThreshold: 2, BreakerCooldown: time.Minute,
		PeerRetry: retry.Policy{
			MaxAttempts: 4, BaseDelay: time.Millisecond,
			MaxDelay: 5 * time.Millisecond, Budget: 2 * time.Second,
		},
	}
	c, fis := faultyCluster(t, 3, o)
	id, _ := idWithOwners(t, c, 2, faulty, entry)
	enc, _ := encodeGrid(t, 17)
	putArchive(t, c.URL(entry), id, enc)

	// Fault the path to the primary from everyone else — after the
	// replicated PUT, so setup never needs the failover machinery.
	for i, ft := range fis {
		if i == faulty {
			continue
		}
		ft.Set(c.Addrs[faulty], faultinject.Fault{ConnectErr: 0.4, ServerErr: 0.3, Truncate: 0.3})
	}

	b := grid.Box{Z0: 1, Z1: 10, Y0: 0, Y1: 12, X0: 2, X1: 11}
	want := boxBytes(t, enc, b)
	url := c.URL(entry) + "/v1/archives/" + id + "/box?box=1:10,0:12,2:11"
	for i := 0; i < 30; i++ {
		resp, body := do(t, http.MethodGet, url, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read %d: client-visible status %d (%s)", i, resp.StatusCode, body)
		}
		got := decode32(t, body)
		if len(got) != len(want) {
			t.Fatalf("read %d: %d values, want %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("read %d: value %d: %v != %v", i, j, got[j], want[j])
			}
		}
	}

	stats := statsOf(t, c.URL(entry))
	if n := statNum(t, stats, "cluster", "failovers"); n < 1 {
		t.Fatalf("failovers = %v, want >= 1 with a 100%% faulty primary", n)
	}
	if n := statNum(t, stats, "cluster", "all_down"); n != 0 {
		t.Fatalf("all_down = %v, want 0 (the healthy replica always answers)", n)
	}
	cl := stats["cluster"].(map[string]any)
	ph, ok := cl["peer_health"].(map[string]any)
	if !ok {
		t.Fatalf("stats cluster.peer_health missing: %v", cl)
	}
	faultyHealth, ok := ph[c.Addrs[faulty]].(map[string]any)
	if !ok {
		t.Fatalf("no peer_health entry for faulty peer %q: %v", c.Addrs[faulty], ph)
	}
	if st := faultyHealth["state"]; st != "open" {
		t.Fatalf("faulty peer breaker state = %v, want open", st)
	}

	// The degraded replica surfaces on the entry node's health probe.
	resp, body := do(t, http.MethodGet, c.URL(entry)+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	var hz struct {
		Status string   `json:"status"`
		Open   []string `json:"open_circuits"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" || indexOf(hz.Open, c.Addrs[faulty]) < 0 {
		t.Fatalf("healthz = %+v, want degraded with %q open", hz, c.Addrs[faulty])
	}

	// The faulty injector really fired (the test proved failover, not luck).
	var injected int64
	for i, ft := range fis {
		if i == faulty {
			continue
		}
		cnt := ft.Counters()
		injected += cnt.ConnectErrs + cnt.ServerErrs + cnt.Truncations
	}
	if injected == 0 {
		t.Fatal("no faults were injected; the scenario did not exercise failover")
	}
}

// TestFailoverAllReplicasDown: when every replica of an archive is
// unreachable the client gets a structured, retryable 503
// peer_unreachable envelope with a Retry-After hint — not a bare 502 —
// and both the stats document and the health probe expose the open
// breakers.
func TestFailoverAllReplicasDown(t *testing.T) {
	const entry = 2
	o := Options{
		Workers: 1, Replicas: 2,
		BreakerThreshold: 1, BreakerCooldown: time.Minute,
		PeerRetry: retry.Policy{
			MaxAttempts: 3, BaseDelay: time.Millisecond,
			MaxDelay: 2 * time.Millisecond, Budget: time.Second,
		},
	}
	c, fis := faultyCluster(t, 3, o)
	id, owners := idWithOwners(t, c, 2, 0, entry)
	enc, _ := encodeGrid(t, 23)
	putArchive(t, c.URL(entry), id, enc)

	// Cut the entry node off from both owners.
	for _, owner := range owners {
		fis[entry].Set(owner, faultinject.Fault{ConnectErr: 1})
	}

	resp, body := do(t, http.MethodGet, c.URL(entry)+"/v1/archives/"+id, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-down read: status %d, want 503 (%s)", resp.StatusCode, body)
	}
	assertEnvelope(t, body, CodePeerUnreachable)
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("all-down 503 missing Retry-After")
	}

	stats := statsOf(t, c.URL(entry))
	if n := statNum(t, stats, "cluster", "all_down"); n < 1 {
		t.Fatalf("all_down = %v, want >= 1", n)
	}
	ph := stats["cluster"].(map[string]any)["peer_health"].(map[string]any)
	for _, owner := range owners {
		oh, ok := ph[owner].(map[string]any)
		if !ok || oh["state"] != "open" {
			t.Fatalf("peer_health[%q] = %v, want open", owner, ph[owner])
		}
	}

	resp, body = do(t, http.MethodGet, c.URL(entry)+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	var hz struct {
		Status string   `json:"status"`
		Open   []string `json:"open_circuits"`
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" || len(hz.Open) != 2 {
		t.Fatalf("healthz = %+v, want degraded with both owners open", hz)
	}
}

// TestBoxCacheGenerationInvalidation: overwriting or deleting an
// archive bumps its store generation, so box results cached for the old
// content can never be served for the new — on a single node and across
// the replicated write fan-out.
func TestBoxCacheGenerationInvalidation(t *testing.T) {
	b := grid.Box{Z0: 0, Z1: 8, Y0: 0, Y1: 8, X0: 0, X1: 8}
	const boxQ = "/box?box=0:8,0:8,0:8"
	encA, _ := encodeGrid(t, 5)
	encB, _ := encodeGrid(t, 6)
	wantA, wantB := boxBytes(t, encA, b), boxBytes(t, encB, b)
	if wantA[0] == wantB[0] {
		t.Fatal("test archives are not distinguishable")
	}
	assertBox := func(t *testing.T, base, id string, want []float32) {
		t.Helper()
		// Twice: a cold read that fills the cache, then the cached read —
		// both must reflect the current archive content.
		for pass := 0; pass < 2; pass++ {
			resp, body := do(t, http.MethodGet, base+"/v1/archives/"+id+boxQ, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("box pass %d: status %d (%s)", pass, resp.StatusCode, body)
			}
			got := decode32(t, body)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("box pass %d: value %d = %v, want %v (stale cache?)", pass, i, got[i], want[i])
				}
			}
		}
	}

	t.Run("single-node", func(t *testing.T) {
		ts := testServer(t, Options{Workers: 1})
		putArchive(t, ts.URL, "gen", encA)
		assertBox(t, ts.URL, "gen", wantA)
		// Overwrite: the generation bump must orphan the cached box.
		putArchive(t, ts.URL, "gen", encB)
		assertBox(t, ts.URL, "gen", wantB)
		// Delete, then re-put the original content under the same id.
		resp, _ := do(t, http.MethodDelete, ts.URL+"/v1/archives/gen", nil)
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("delete: status %d", resp.StatusCode)
		}
		resp, body := do(t, http.MethodGet, ts.URL+"/v1/archives/gen"+boxQ, nil)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("box after delete: status %d (%s), want 404", resp.StatusCode, body)
		}
		putArchive(t, ts.URL, "gen", encA)
		assertBox(t, ts.URL, "gen", wantA)
	})

	t.Run("replicated", func(t *testing.T) {
		c, _ := faultyCluster(t, 3, Options{Workers: 1, Replicas: 2})
		id, _ := idWithOwners(t, c, 2, 0, 2)
		putArchive(t, c.URL(2), id, encA)
		assertBox(t, c.URL(2), id, wantA)
		// The overwrite fans out to every replica; reads through any node
		// (owner or coordinator) must see the new content, never a box
		// cached under the old generation.
		putArchive(t, c.URL(2), id, encB)
		for i := range c.Nodes {
			assertBox(t, c.URL(i), id, wantB)
		}
	})
}

// TestReadServedByLocalReplica: an owner answers its own reads. A box
// read addressed to either replica is served by that node with no peer
// round trip and no failover; a read at the node outside the replica set
// is forwarded exactly once, to the primary; and a secondary restarted
// with a wiped store fails over to the primary, counts one failover and
// is repaired from it.
func TestReadServedByLocalReplica(t *testing.T) {
	const outsider = 2
	c, fis := faultyCluster(t, 3, Options{Workers: 1, Replicas: 2, AntiEntropyInterval: -1})
	id, owners := idWithOwners(t, c, 2, 0, outsider)
	primary, secondary := 0, indexOf(c.Addrs, owners[1])
	enc, _ := encodeGrid(t, 43)
	putArchive(t, c.URL(outsider), id, enc)

	want := boxBytes(t, enc, grid.Box{Z0: 2, Z1: 10, Y0: 0, Y1: 12, X0: 3, X1: 9})
	read := func(node, servedBy int, replica string) {
		t.Helper()
		resp, body := do(t, http.MethodGet, c.URL(node)+"/v1/archives/"+id+"/box?box=2:10,0:12,3:9", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read at node %d: status %d (%s)", node, resp.StatusCode, body)
		}
		if got := resp.Header.Get(ServedByHeader); got != c.Addrs[servedBy] {
			t.Fatalf("read at node %d: X-Stz-Served-By = %q, want %q", node, got, c.Addrs[servedBy])
		}
		if got := resp.Header.Get(ReplicaHeader); got != replica {
			t.Fatalf("read at node %d: X-Stz-Replica = %q, want %s", node, got, replica)
		}
		got := decode32(t, body)
		if len(got) != len(want) {
			t.Fatalf("read at node %d: %d values, want %d", node, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("read at node %d: value %d = %v, want %v", node, i, got[i], want[i])
			}
		}
	}
	// trips counts each node's peer round trips so far.
	trips := func() []int64 {
		out := make([]int64, len(fis))
		for i, ft := range fis {
			out[i] = ft.Counters().Passed
		}
		return out
	}
	failovers := func() (n float64) {
		for i := range c.Nodes {
			n += statNum(t, statsOf(t, c.URL(i)), "cluster", "failovers")
		}
		return n
	}

	before := trips()
	read(primary, primary, "0")
	read(secondary, secondary, "1")
	if after := trips(); !slices.Equal(after, before) {
		t.Fatalf("owner reads made peer round trips: %v -> %v", before, after)
	}
	if n := failovers(); n != 0 {
		t.Fatalf("failovers = %v after owner reads, want 0", n)
	}

	fwd := statNum(t, statsOf(t, c.URL(outsider)), "cluster", "forwarded")
	read(outsider, primary, "0")
	after := trips()
	for i := range after {
		wantD := int64(0)
		if i == outsider {
			wantD = 1
		}
		if after[i]-before[i] != wantD {
			t.Fatalf("read at the non-owner: peer round trips %v -> %v, want one from node %d", before, after, outsider)
		}
	}
	if n := statNum(t, statsOf(t, c.URL(outsider)), "cluster", "forwarded") - fwd; n != 1 {
		t.Fatalf("non-owner forwarded %v times, want 1", n)
	}
	if n := failovers(); n != 0 {
		t.Fatalf("failovers = %v after a forwarded read, want 0", n)
	}

	// A secondary back with an empty store is a lagging replica: its own
	// 404 moves the read on to the primary, and read repair refills it.
	c.Stop(secondary)
	if err := c.Restart(secondary); err != nil {
		t.Fatal(err)
	}
	read(secondary, primary, "0")
	if n := statNum(t, statsOf(t, c.URL(secondary)), "cluster", "failovers"); n != 1 {
		t.Fatalf("wiped secondary counted %v failovers, want 1", n)
	}
	waitFor(t, 5*time.Second, "read repair of the wiped secondary", func() bool {
		return statNum(t, statsOf(t, c.URL(secondary)), "repair", "read_repairs") == 1
	})
	if _, _, ok := c.Nodes[secondary].store.getRaw(id); !ok {
		t.Fatal("read repair counted but the secondary's store is still empty")
	}
	read(secondary, secondary, "1")
}

// TestReadsNeverTornUnderWrites: a read racing a replicated overwrite
// sees one whole version. Readers on both replicas fetch one box while
// PUTs of two bodies alternate on the id through every node; each box
// body must be one version's window, and no read may answer a 5xx.
func TestReadsNeverTornUnderWrites(t *testing.T) {
	c := testCluster(t, 3, Options{Workers: 1, Replicas: 2, MaxInflight: 8,
		AdmissionWait: 5 * time.Second, AntiEntropyInterval: -1})
	id, owners := idWithOwners(t, c, 2, 0, 2)
	encs := [2][]byte{}
	var want [2][]byte
	b := grid.Box{Z0: 1, Z1: 11, Y0: 2, Y1: 10, X0: 0, X1: 12}
	for v := range encs {
		encs[v], _ = encodeGrid(t, int64(44+v))
		vals := boxBytes(t, encs[v], b)
		want[v] = make([]byte, 4*len(vals))
		rawio.PutValues(want[v], vals)
	}
	if bytes.Equal(want[0], want[1]) {
		t.Fatal("test archives are not distinguishable")
	}
	putArchive(t, c.URL(2), id, encs[0])

	stop := make(chan struct{})
	var wg sync.WaitGroup
	reads := make([]atomic.Int64, len(owners))
	for r, owner := range owners {
		url := "http://" + owner + "/v1/archives/" + id + "/box?box=1:11,2:10,0:12"
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("read from %s: %v", owner, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case err != nil:
					t.Errorf("read from %s: body: %v", owner, err)
					return
				case resp.StatusCode != http.StatusOK:
					t.Errorf("read from %s: status %d (%s)", owner, resp.StatusCode, body)
					return
				case !bytes.Equal(body, want[0]) && !bytes.Equal(body, want[1]):
					t.Errorf("read from %s: a %d-byte body that is neither version's window", owner, len(body))
					return
				}
				reads[r].Add(1)
			}
		}()
	}
	func() {
		defer func() { close(stop); wg.Wait() }()
		for i := 0; i < 40; i++ {
			putArchive(t, c.URL(i%3), id, encs[(i+1)%2])
		}
	}()
	for r := range reads {
		if reads[r].Load() == 0 {
			t.Errorf("no read against %s completed during the writes", owners[r])
		}
		t.Logf("%d reads against %s", reads[r].Load(), owners[r])
	}
}
