package stzd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"stz/internal/codec"
	"stz/internal/datasets"
	"stz/internal/faultinject"
)

// TestClientCannotPinWriteTime: a client's X-Stz-Write-Time is not a
// version. Without the edge dropping it, a single node would store the
// far-future stamp and answer every later plain write of the id 409.
func TestClientCannotPinWriteTime(t *testing.T) {
	ts := testServer(t, Options{Workers: 1})
	enc, _ := encodeGrid(t, 31)
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/archives/pinned", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(WriteTimeHeader, "9000000000000000000")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("stamped PUT: status %d, want 201", resp.StatusCode)
	}
	if resp, body := do(t, http.MethodPut, ts.URL+"/v1/archives/pinned", bytes.NewReader(enc)); resp.StatusCode != http.StatusOK {
		t.Fatalf("plain PUT after a stamped one: status %d, want 200 (%s)", resp.StatusCode, body)
	}
	if resp, body := do(t, http.MethodDelete, ts.URL+"/v1/archives/pinned", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE after a stamped PUT: status %d, want 204 (%s)", resp.StatusCode, body)
	}
}

// spaces is an n-byte request body of JSON whitespace that counts how much
// of it the server read.
type spaces struct{ read, n int64 }

func (s *spaces) Read(p []byte) (int, error) {
	if s.read >= s.n {
		return 0, io.EOF
	}
	k := min(int64(len(p)), s.n-s.read)
	for i := range p[:k] {
		p[i] = ' '
	}
	s.read += k
	return int(k), nil
}

// TestROIBodyCappedBeforeForwarding: a ROI request is a small JSON
// document, and the node a client hits caps its body at 1 MiB before it
// forwards anything, answering exactly as a single node does.
func TestROIBodyCappedBeforeForwarding(t *testing.T) {
	c := testCluster(t, 3, Options{Workers: 1})
	id := idOwnedBy(t, c, 1)
	enc, _ := encodeGrid(t, 32)
	putArchive(t, c.URL(0), id, enc)
	single := New(Options{Workers: 1})
	defer single.Close()
	if _, _, err := single.store.put(id, enc, 1); err != nil {
		t.Fatal(err)
	}

	for name, s := range map[string]*Server{"non-owner": c.Nodes[0], "single-node": single} {
		// Unknown length, and a declared one the cap refuses unread.
		for _, declared := range []bool{false, true} {
			body := &spaces{n: 8 << 20}
			req := httptest.NewRequest(http.MethodPost, "/v1/archives/"+id+"/roi", body)
			if declared {
				req.ContentLength = body.n
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if body.read > 1<<20+1 {
				t.Errorf("%s (declared %v): read %d body bytes of a ROI request, want at most 1 MiB + 1", name, declared, body.read)
			}
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s (declared %v): status %d, want 400 (%s)", name, declared, rec.Code, rec.Body)
			}
			assertEnvelope(t, rec.Body.Bytes(), CodeBadRequest)
		}
	}
}

// allocated is how many heap bytes the process allocated while f ran.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestPutDeclaredLengths: a PUT body is stored byte for byte whether it
// declares its length or arrives chunked; one past -max-body is 413
// either way; and a Content-Length near the default 1 GiB -max-body that
// only 10 bytes back is 400 bad_request without the node allocating the
// declared length.
func TestPutDeclaredLengths(t *testing.T) {
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	enc, _ := encodeGrid(t, 35)
	for name, body := range map[string]io.Reader{
		"declared": bytes.NewReader(enc),
		"chunked":  io.MultiReader(bytes.NewReader(enc)), // no length: sent chunked
	} {
		if resp, b := do(t, http.MethodPut, ts.URL+"/v1/archives/"+name, body); resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s PUT: status %d, want 201 (%s)", name, resp.StatusCode, b)
		}
		if raw, _, ok := s.store.getRaw(name); !ok || !bytes.Equal(raw, enc) {
			t.Fatalf("%s PUT: stored %d bytes, want the %d-byte archive byte for byte", name, len(raw), len(enc))
		}
	}

	small := testServer(t, Options{Workers: 1, MaxBody: int64(len(enc)) - 1})
	for name, body := range map[string]io.Reader{
		"declared": bytes.NewReader(enc),
		"chunked":  io.MultiReader(bytes.NewReader(enc)),
	} {
		resp, b := do(t, http.MethodPut, small.URL+"/v1/archives/big", body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s PUT past -max-body: status %d, want 413 (%s)", name, resp.StatusCode, b)
		}
		assertEnvelope(t, b, CodePayloadTooLarge)
	}

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var resp *http.Response
	grew := allocated(func() {
		fmt.Fprintf(conn, "PUT /v1/archives/liar HTTP/1.1\r\nHost: stzd\r\nContent-Length: %d\r\n\r\n0123456789", s.opts.MaxBody-1)
		if err = conn.(*net.TCPConn).CloseWrite(); err == nil {
			resp, err = http.ReadResponse(bufio.NewReader(conn), nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT declaring %d bytes with 10 sent: status %d, want 400 (%s)", s.opts.MaxBody-1, resp.StatusCode, b)
	}
	assertEnvelope(t, b, CodeBadRequest)
	if grew > 4*bodyStep {
		t.Fatalf("PUT declaring %d bytes with 10 sent: heap grew %d bytes, want at most %d", s.opts.MaxBody-1, grew, 4*bodyStep)
	}
	if _, _, ok := s.store.getRaw("liar"); ok {
		t.Fatal("a short body was stored")
	}
}

// oversizedPut answers every PUT sent to peer with 201 and a body far
// past what a replica's answer to a write can be.
type oversizedPut struct {
	next http.RoundTripper
	peer string
}

func (o oversizedPut) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPut || req.URL.Host != o.peer {
		return o.next.RoundTrip(req)
	}
	if req.Body != nil {
		req.Body.Close()
	}
	return &http.Response{
		Status: "201 Created", StatusCode: http.StatusCreated,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(&spaces{n: 16 << 20}),
		ContentLength: -1, Request: req,
	}, nil
}

// TestFanoutLegAnswerBounded: a replica's answer to a fanned-out write
// is read under maxBufferedProxy. A leg answering 201 with 16 MiB is a
// failed leg — ok:false, a breaker failure — while the other two still
// make the quorum.
func TestFanoutLegAnswerBounded(t *testing.T) {
	o := Options{Workers: 1, Replicas: 3, HintRetryInterval: time.Hour, AntiEntropyInterval: -1}
	c := StartTestClusterOpts(3, o, func(i int, addrs []string, no *Options) {
		if i == 0 {
			no.WrapTransport = func(rt http.RoundTripper) http.RoundTripper {
				return oversizedPut{next: rt, peer: addrs[1]}
			}
		}
	})
	t.Cleanup(c.Close)
	enc, _ := encodeGrid(t, 33)

	resp, body := do(t, http.MethodPut, c.URL(0)+"/v1/archives/bounded", bytes.NewReader(enc))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: status %d, want 201 (%s)", resp.StatusCode, body)
	}
	var doc struct {
		Replicas []struct {
			Peer string `json:"peer"`
			OK   bool   `json:"ok"`
		} `json:"replicas"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("PUT response not JSON: %v (%.200s)", err, body)
	}
	for _, rep := range doc.Replicas {
		if rep.OK == (rep.Peer == c.Addrs[1]) {
			t.Fatalf("replicas %+v: want only %s failed", doc.Replicas, c.Addrs[1])
		}
	}
	if len(doc.Replicas) != 3 {
		t.Fatalf("%d replica results, want 3", len(doc.Replicas))
	}
	ph := statsOf(t, c.URL(0))["cluster"].(map[string]any)["peer_health"].(map[string]any)
	if leg, ok := ph[c.Addrs[1]].(map[string]any); !ok || leg["consecutive_failures"].(float64) < 1 {
		t.Fatalf("peer_health[%s] = %v, want a recorded failure", c.Addrs[1], ph[c.Addrs[1]])
	}
}

// TestReadCapped: a body with a declared length within the cap is read
// into one buffer of exactly that length up to bodyStep and grown past
// it, a body that ends short of its declared length is
// io.ErrUnexpectedEOF, and a body past the cap is refused with an
// *http.MaxBytesError whether its length is declared or not.
func TestReadCapped(t *testing.T) {
	const limit = 64
	for _, tc := range []struct {
		name    string
		body    int   // bytes the reader delivers
		size    int64 // declared length, -1 unknown
		wantErr error // nil: success; errLong: refused as too long
	}{
		{"exact", 48, 48, nil},
		{"exact at limit", limit, limit, nil},
		{"exact empty", 0, 0, nil},
		{"short", 20, 48, io.ErrUnexpectedEOF},
		{"short empty", 0, 48, io.ErrUnexpectedEOF},
		{"declared over limit", limit + 1, limit + 1, errLong},
		{"unknown over limit", limit + 1, -1, errLong},
		{"unknown", 48, -1, nil},
		{"unknown at limit", limit, -1, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := bytes.Repeat([]byte("s"), tc.body)
			data, err := readCapped(bytes.NewReader(body), tc.size, limit)
			var mbe *http.MaxBytesError
			switch {
			case tc.wantErr == errLong:
				if !errors.As(err, &mbe) || mbe.Limit != limit {
					t.Fatalf("err = %v, want a MaxBytesError at %d", err, limit)
				}
			case tc.wantErr != nil:
				if err != tc.wantErr {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
			case err != nil:
				t.Fatalf("err = %v", err)
			case !bytes.Equal(data, body):
				t.Fatalf("read %d bytes, want the %d-byte body", len(data), len(body))
			case tc.size >= 0 && cap(data) != int(tc.size):
				t.Fatalf("buffer cap %d, want exactly the declared %d", cap(data), tc.size)
			}
		})
	}

	// Past bodyStep a declared body is read growing, and a declared
	// length no bytes back costs no more than a step or two.
	big := bytes.Repeat([]byte("b"), 3*bodyStep+5)
	if data, err := readCapped(bytes.NewReader(big), int64(len(big)), 1<<30); err != nil || !bytes.Equal(data, big) {
		t.Fatalf("a %d-byte declared body: read %d bytes, err %v", len(big), len(data), err)
	}
	var err error
	if grew := allocated(func() { _, err = readCapped(strings.NewReader("0123456789"), 1<<30, 1<<30) }); grew > 2*bodyStep {
		t.Fatalf("10 bytes declaring 1 GiB: allocated %d bytes, want at most %d", grew, 2*bodyStep)
	}
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("10 bytes declaring 1 GiB: err = %v, want %v", err, io.ErrUnexpectedEOF)
	}

	// Through proxyRead, a peer's short body stays off the wire: nothing
	// is committed and the walk may fail over.
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/liar" {
			w.Header().Set("Content-Length", strconv.Itoa(1<<30-1))
			w.Write([]byte("0123456789"))
			return
		}
		faultinject.WriteTruncated(w, bytes.Repeat([]byte("t"), 4096))
	}))
	defer peer.Close()
	addr := strings.TrimPrefix(peer.URL, "http://")
	s := New(Options{Self: "self:1", Peers: []string{addr}, AntiEntropyInterval: -1})
	defer s.Close()
	rec := httptest.NewRecorder()
	committed, nf, _, errMsg := s.proxyRead(rec, httptest.NewRequest(http.MethodGet, "/v1/archives/x", nil), addr, nil)
	if committed || nf != nil || !strings.Contains(errMsg, io.ErrUnexpectedEOF.Error()) {
		t.Fatalf("short peer body: committed=%v notFound=%v err=%q, want an uncommitted unexpected EOF", committed, nf, errMsg)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("short peer body: %d bytes reached the client", rec.Body.Len())
	}

	// Through peerDo, a peer answer declaring about the whole -max-body
	// with 10 bytes sent is an error that never sized a buffer from the
	// header.
	grew := allocated(func() {
		_, _, _, err = s.peerDo(context.Background(), http.MethodGet, addr, "/liar", nil, nil, s.opts.MaxBody)
	})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("peer answer declaring 1 GiB with 10 bytes sent: err = %v, want %v", err, io.ErrUnexpectedEOF)
	}
	if grew > 4*bodyStep {
		t.Fatalf("peer answer declaring 1 GiB with 10 bytes sent: heap grew %d bytes, want at most %d", grew, 4*bodyStep)
	}
}

// errLong marks a TestReadCapped case refused as longer than the cap.
var errLong = errors.New("too long")

// TestMalformedRequestsNeverWait pins the chain's order: handlers validate
// before they claim a job slot, and zero-copy sections and box-cache hits
// never claim one. With every slot taken and a 5 s admission wait, none of
// these requests may wait or answer 503.
func TestMalformedRequestsNeverWait(t *testing.T) {
	s := New(Options{Workers: 1, MaxInflight: 1, AdmissionWait: 5 * time.Second})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	enc, _ := encodeGrid(t, 34)
	putArchive(t, ts.URL, "ok", enc)
	hot := ts.URL + "/v1/archives/ok/box?box=0:4,0:4,0:4"
	if resp, body := do(t, http.MethodGet, hot, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("warming the box cache: status %d (%s)", resp.StatusCode, body)
	}
	hdr, err := codec.ParseHeader(enc)
	if err != nil {
		t.Fatal(err)
	}

	s.sem <- struct{}{}
	defer s.release()
	cases := []struct {
		name, method, url, accept string
		status                    int
	}{
		{"compress-without-eb", http.MethodPost, "/v1/compress?codec=sz3&dims=12x12x12", "", http.StatusBadRequest},
		{"unparseable-box", http.MethodGet, "/v1/archives/ok/box?box=1:2", "", http.StatusBadRequest},
		{"box-outside-grid", http.MethodGet, "/v1/archives/ok/box?box=0:13,0:12,0:12", "", http.StatusUnprocessableEntity},
		{"unknown-id", http.MethodGet, "/v1/archives/nope/box?box=0:1,0:1,0:1", "", http.StatusNotFound},
		{"zero-copy-section", http.MethodGet, "/v1/archives/ok/box?box=0:" + strconv.Itoa(hdr.ChunkBounds[1]) + ",0:12,0:12",
			SectionContentType, http.StatusOK},
		{"box-cache-hit", http.MethodGet, "/v1/archives/ok/box?box=0:4,0:4,0:4", "", http.StatusOK},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.accept != "" {
			req.Header.Set("Accept", tc.accept)
		}
		start := time.Now()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("%s: answered after %v with every job slot taken", tc.name, elapsed)
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, body)
		}
	}
}

// FuzzArchiveRequest drives arbitrary archive-route requests — method,
// route suffix, query, X-Stz-* headers, Accept and body — through the
// whole chain of a single node holding a small sz3 and a small stz
// archive. Nothing may panic, and every error is a status docs/API.md
// documents, carrying the JSON envelope.
func FuzzArchiveRequest(f *testing.F) {
	g := datasets.Nyx(12, 12, 12, 9)
	sz3, err := codec.Encode("sz3", g, codec.Config{EB: 0.05, Chunks: 2})
	if err != nil {
		f.Fatal(err)
	}
	stz, err := codec.Encode("stz", g, codec.Config{EB: 1e-3, Mode: codec.ModeRel})
	if err != nil {
		f.Fatal(err)
	}
	methods := []string{"GET", "PUT", "POST", "DELETE", "HEAD", "PATCH"}
	method := func(m string) byte {
		for i, x := range methods {
			if x == m {
				return byte(i)
			}
		}
		panic(m)
	}
	// The cases of TestRandomAccessArchiveErrors, plus the headers, the
	// zero-copy negotiation and the stz archive.
	for _, s := range []struct {
		method, suffix, query, headers string
		section                        bool
		body                           []byte
	}{
		{"GET", "nope", "", "", false, nil},
		{"GET", "nope/box", "box=0:1,0:1,0:1", "", false, nil},
		{"DELETE", "nope", "", "", false, nil},
		{"POST", "nope/roi", "", "", false, []byte(`{}`)},
		{"PUT", strings.Repeat("x", 200), "", "", false, sz3},
		{"PUT", "bad", "", "", false, []byte("not an archive")},
		{"PUT", "bad", "", "", false, sz3[:len(sz3)/2]},
		{"PUT", "bad", "", "", false, mutateMagic(sz3)},
		{"GET", "ok/box", "", "", false, nil},
		{"GET", "ok/box", "box=1:2", "", false, nil},
		{"GET", "ok/box", "box=a:b,0:1,0:1", "", false, nil},
		{"GET", "ok/box", "box=3:3,0:12,0:12", "", false, nil},
		{"GET", "ok/box", "box=8:2,0:12,0:12", "", false, nil},
		{"GET", "ok/box", "box=0:13,0:12,0:12", "", false, nil},
		{"GET", "ok/box", "box=-1:4,0:12,0:12", "", false, nil},
		{"POST", "ok/roi", "", "", false, []byte("{")},
		{"POST", "ok/roi", "", "", false, []byte(`{"mode":"median"}`)},
		{"POST", "ok/roi", "", "", false, []byte(`{"block":-4}`)},
		{"POST", "stz/roi", "", "", false, []byte(`{"mode":"range","block":5,"top":10}`)},
		{"GET", "stz/box", "", "Box=2:9,1:11,3:12", false, nil},
		{"GET", "ok/box", "box=0:6,0:12,0:12", "", true, nil},
		{"PUT", "ok", "", "Forwarded=peer:1\nWrite-Time=9000000000000000000", false, stz},
		{"GET", "stz/raw", "", "", false, nil},
		// Declared lengths the body does not match: short, longer than
		// -max-body, and shorter than the body.
		{"PUT", "ok", "", "Content-Length=1048575", false, sz3},
		{"PUT", "ok", "", "Content-Length=1048577", false, sz3},
		{"PUT", "ok", "", "Content-Length=10", false, sz3},
	} {
		f.Add(method(s.method), s.suffix, s.query, s.headers, s.section, s.body)
	}
	documented := map[int]bool{400: true, 404: true, 405: true, 409: true, 413: true, 421: true, 422: true, 503: true}
	f.Fuzz(func(t *testing.T, m byte, suffix, query, headers string, section bool, body []byte) {
		req, err := http.NewRequest(methods[int(m)%len(methods)], "http://stzd/v1/archives/"+suffix+"?"+query, bytes.NewReader(body))
		if err != nil {
			return
		}
		// The mux redirects a path that is not clean before any route runs.
		if p := req.URL.EscapedPath(); path.Clean(p) != strings.TrimSuffix(p, "/") {
			return
		}
		for _, line := range strings.Split(headers, "\n") {
			k, v, ok := strings.Cut(line, "=")
			switch {
			case !ok:
			case k == "Content-Length":
				// A length the body need not back, as any client may declare.
				if n, err := strconv.ParseInt(v, 10, 64); err == nil && n >= 0 {
					req.ContentLength = n
				}
			default:
				req.Header.Set("X-Stz-"+k, v)
			}
		}
		if section {
			req.Header.Set("Accept", SectionContentType)
		}
		s := New(Options{Workers: 1, MaxInflight: 2, MaxBody: 1 << 20})
		defer s.Close()
		for id, arc := range map[string][]byte{"ok": sz3, "stz": stz} {
			if _, _, err := s.store.put(id, arc, 1); err != nil {
				t.Fatal(err)
			}
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code < 300 {
			return
		}
		if !documented[rec.Code] {
			t.Fatalf("%s %s: status %d is not a documented error status (%.200s)", req.Method, req.URL, rec.Code, rec.Body)
		}
		var env errorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code == "" || env.Error.Message == "" {
			t.Fatalf("%s %s: %d without the error envelope: %.200q", req.Method, req.URL, rec.Code, rec.Body)
		}
	})
}
