package stzd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"stz/internal/codec"
	"stz/internal/grid"
	"stz/internal/roi"
)

// writeTime resolves a write's LWW timestamp: the coordinator-stamped
// X-Stz-Write-Time header when present (a fanned-out replica apply, a
// hint replay, or a repair push — the edge drops it from client
// traffic), else the local clock — so direct writes and single-node mode
// version themselves.
func writeTime(r *http.Request) int64 {
	if v := r.Header.Get(WriteTimeHeader); v != "" {
		if t, err := strconv.ParseInt(v, 10, 64); err == nil && t > 0 {
			return t
		}
	}
	return time.Now().UnixNano()
}

// The archive query API: clients PUT a compressed archive once, then issue
// ROI-driven random-access queries against the resident copy — the
// paper's partial-read workflow as a service. Responses carry the
// container's chunk-read accounting (X-Stz-Read-Bytes / X-Stz-Payload-
// Bytes) so clients can see that a sub-box query read only the slabs it
// needed.

// maxArchiveID bounds stored ids; validArchiveID restricts them to a safe
// path-segment charset.
const maxArchiveID = 128

func validArchiveID(id string) bool {
	if id == "" || len(id) > maxArchiveID {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// archiveJSON is the transport form of one resident archive.
type archiveJSON struct {
	ID     string `json:"id"`
	Codec  string `json:"codec"`
	Dims   string `json:"dims"`
	Dtype  string `json:"dtype"`
	Chunks int    `json:"chunks"`
	Bytes  int64  `json:"bytes"`
	Cost   int64  `json:"cost"`
}

func entryJSON(e *archiveEntry) archiveJSON {
	hdr := e.hdr()
	return archiveJSON{
		ID: e.id, Codec: hdr.Codec,
		Dims:  fmt.Sprintf("%dx%dx%d", hdr.Nz, hdr.Ny, hdr.Nx),
		Dtype: dtypeName(hdr.DType), Chunks: hdr.Chunks(),
		Bytes: e.size, Cost: e.cost,
	}
}

// handleArchivePut stores the request body (read by the chain, up to
// -max-body) as a resident archive. One that parses as anything but a
// valid SZXC archive is 422 (it is well-formed HTTP, just not a
// decodable archive).
func (s *Server) handleArchivePut(w http.ResponseWriter, c *call) {
	if !validArchiveID(c.id) {
		httpError(w, http.StatusBadRequest, CodeBadRequest,
			"archive id must be 1-%d chars of [A-Za-z0-9._-]", maxArchiveID)
		return
	}
	e, replaced, err := s.store.put(c.id, c.body, writeTime(c.r))
	if err != nil {
		// A body that cannot fit the store is 413; one that is not a
		// decodable SZXC archive is 422 (well-formed HTTP, bad entity); one
		// that lost last-writer-wins is 409 (terminal for repair pushers).
		if errors.Is(err, errStoreBudget) {
			httpError(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge, "%v", err)
			return
		}
		if errors.Is(err, errStaleWrite) {
			httpError(w, http.StatusConflict, CodeStaleWrite, "%v", err)
			return
		}
		httpError(w, http.StatusUnprocessableEntity, CodeBadArchive, "%v", err)
		return
	}
	status := http.StatusCreated
	if replaced {
		status = http.StatusOK
	}
	writeJSON(w, status, entryJSON(e))
}

func (s *Server) handleArchiveList(w http.ResponseWriter, _ *call) {
	entries, bytes := s.store.snapshot()
	out := make([]archiveJSON, 0, len(entries))
	for _, e := range entries {
		out = append(out, entryJSON(e))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"archives":  out,
		"bytes":     bytes,
		"budget":    s.store.perShard * int64(len(s.store.shards)),
		"evictions": s.store.evictions.Load(),
	})
}

func (s *Server) handleArchiveInfo(w http.ResponseWriter, c *call) {
	writeJSON(w, http.StatusOK, entryJSON(c.e))
}

func (s *Server) handleArchiveDelete(w http.ResponseWriter, c *call) {
	existed, stale := s.store.delete(c.id, writeTime(c.r))
	if stale {
		httpError(w, http.StatusConflict, CodeStaleWrite,
			"a newer version of archive %q is resident; delete not applied", c.id)
		return
	}
	if !existed {
		// The tombstone is recorded regardless, so even a delete of an id
		// this replica never saw still blocks later resurrection.
		httpError(w, http.StatusNotFound, CodeUnknownArchive, "unknown archive %q", c.id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleArchiveRaw serves the stored archive bytes verbatim with the
// entry's LWW write-time — the repair paths' fetch endpoint (read
// repair and anti-entropy pull a replica's copy through it to re-push
// elsewhere). It reads through getRaw, so repair traffic perturbs
// neither the LRU order nor the hit/miss counters.
func (s *Server) handleArchiveRaw(w http.ResponseWriter, c *call) {
	raw, mtime, ok := s.store.getRaw(c.id)
	if !ok {
		httpError(w, http.StatusNotFound, CodeUnknownArchive, "unknown archive %q", c.id)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(WriteTimeHeader, strconv.FormatInt(mtime, 10))
	h.Set("Content-Length", strconv.Itoa(len(raw)))
	w.Write(raw)
}

// handleManifest serves the node's replication digest: id → (write-time,
// length, checksum) for every resident archive, plus the live delete
// tombstones. Peers' anti-entropy sweeps diff this against their own
// manifest to find missing and divergent entries.
func (s *Server) handleManifest(w http.ResponseWriter, _ *call) {
	archives, tombs := s.store.manifest()
	writeJSON(w, http.StatusOK, manifestJSON{Archives: archives, Tombstones: tombs})
}

// manifestJSON is the /v1/manifest document.
type manifestJSON struct {
	Archives   map[string]manifestEntry `json:"archives"`
	Tombstones map[string]int64         `json:"tombstones"`
}

// handleArchiveBox serves GET /v1/archives/{id}/box?box=z0:z1,y0:y1,x0:x1 —
// random-access sub-box decode against a resident archive. Box queries are
// decode jobs and go through the admission semaphore like compress and
// decompress.
//
// Hot-box path: payloads small enough for the result cache are served
// from it when present (X-Stz-Cache: hit, no archive bytes read), and on
// a miss the decode runs under single-flight — concurrent queries of the
// same archive+box collapse to one decode whose result all of them (and
// the cache) share. Payloads beyond the cache's entry cap stream
// directly (X-Stz-Cache: bypass).
func (s *Server) handleArchiveBox(w http.ResponseWriter, c *call) {
	e := c.e
	b, err := codec.ParseBox(param(c.r, "box", "X-Stz-Box"))
	if err != nil {
		httpError(w, http.StatusBadRequest, CodeBadBox, "box parameter: %v", err)
		return
	}
	// Validate before claiming a job slot so malformed queries never wait.
	if err := codec.CheckBox(b, e.hdr().Nz, e.hdr().Ny, e.hdr().Nx); err != nil {
		httpError(w, http.StatusUnprocessableEntity, CodeBadBox, "%v", err)
		return
	}
	// Zero-copy fast path: a slab-aligned query from a client that accepts
	// the section media type ships the still-compressed bytes straight
	// from the archive — no decode, no job slot. Misaligned boxes fall
	// through to the normal decode path (negotiation, not an error).
	if acceptsSection(c.r) {
		if i0, i1, ok := alignedSections(e.hdr(), b); ok {
			s.serveBoxSections(w, e, b, i0, i1)
			return
		}
	}
	size := int64(b.Volume()) * int64(e.hdr().DType)
	if s.boxCache.cacheable(size) {
		s.serveBoxCached(w, c.r, e, b)
		return
	}
	if !s.acquire(c.r) {
		saturated(w)
		return
	}
	defer s.release()

	// Decode before the status line, so the headers carry this query's
	// read delta and a decode failure still gets a clean error status.
	// The delta is approximate under concurrent queries on the same
	// archive (the counter is shared).
	read0, _ := e.q.accounting()
	write, err := e.q.decodeBox(b)
	if err != nil {
		// The box was validated, so failures are decode-side: the resident
		// archive cannot produce the window.
		httpError(w, http.StatusUnprocessableEntity, CodeBadArchive, "%v", err)
		return
	}
	read1, _ := e.q.accounting()
	writeBoxHeaders(w, e, b, "application/octet-stream", read1-read0, size).Set("X-Stz-Cache", "bypass")
	if err := write(w); err != nil {
		// The status line is already out; the stream just truncates.
		log.Printf("archive box: write failed mid-stream: %v", err)
	}
}

// boxResult is one single-flight decode outcome: the full payload bytes
// plus the archive bytes the decode read.
type boxResult struct {
	data []byte
	read int64
}

// errSaturatedFlight marks a single-flight leader that could not claim a
// job slot; mapped back to the pool_saturated envelope by every caller.
var errSaturatedFlight = errors.New("job pool saturated")

// boxKey names one decoded window: archive id, entry generation (so a
// replaced archive never serves stale windows), and the canonical box.
func boxKey(e *archiveEntry, b grid.Box) string {
	return fmt.Sprintf("%s\x00%d\x00%d:%d,%d:%d,%d:%d",
		e.id, e.gen, b.Z0, b.Z1, b.Y0, b.Y1, b.X0, b.X1)
}

// serveBoxCached serves a box through the hot-box tier: result cache
// first, then a single-flight decode (the leader claims a job slot and
// decodes; followers wait and reuse the result) that fills the cache.
func (s *Server) serveBoxCached(w http.ResponseWriter, r *http.Request, e *archiveEntry, b grid.Box) {
	key := boxKey(e, b)
	if data, ok := s.boxCache.get(key); ok {
		writeBoxHeaders(w, e, b, "application/octet-stream", 0, int64(len(data))).Set("X-Stz-Cache", "hit")
		w.Write(data)
		return
	}
	res, _, err := s.boxFlights.Do(key, func() (boxResult, error) {
		// Re-check under the flight: a just-finished flight may have
		// filled the cache after our lookup missed but before this flight
		// started; serving it keeps "one decode per cached window" exact.
		if data, ok := s.boxCache.get(key); ok {
			return boxResult{data: data}, nil
		}
		if !s.acquire(r) {
			return boxResult{}, errSaturatedFlight
		}
		defer s.release()
		s.boxDecodes.Add(1)
		read0, _ := e.q.accounting()
		// The body's size is known (DType is the element width, and the box
		// passed cacheable's ceiling): build it once instead of regrowing.
		var buf bytes.Buffer
		buf.Grow(b.Volume() * int(e.hdr().DType))
		write, err := e.q.decodeBox(b)
		if err == nil {
			err = write(&buf)
		}
		if err != nil {
			return boxResult{}, err
		}
		read1, _ := e.q.accounting()
		res := boxResult{data: buf.Bytes(), read: read1 - read0}
		// Fill the cache before the flight key is released so no later
		// request can slip between flight teardown and cache fill.
		s.boxCache.put(key, res.data)
		return res, nil
	})
	if err != nil {
		if errors.Is(err, errSaturatedFlight) {
			saturated(w)
			return
		}
		httpError(w, http.StatusUnprocessableEntity, CodeBadArchive, "%v", err)
		return
	}
	writeBoxHeaders(w, e, b, "application/octet-stream", res.read, int64(len(res.data))).Set("X-Stz-Cache", "miss")
	w.Write(res.data)
}

// writeBoxHeaders sets what every box response carries — the window's
// codec, dims and dtype, the read accounting pair, the exact
// Content-Length — and returns the header map for the path's additions.
func writeBoxHeaders(w http.ResponseWriter, e *archiveEntry, b grid.Box, ctype string, read, length int64) http.Header {
	_, payload := e.q.accounting()
	h := w.Header()
	setGridHeaders(h, ctype, e.hdr().Codec, b.Z1-b.Z0, b.Y1-b.Y0, b.X1-b.X0, e.hdr().DType)
	h.Set("X-Stz-Payload-Bytes", strconv.FormatInt(payload, 10))
	h.Set("X-Stz-Read-Bytes", strconv.FormatInt(read, 10))
	h.Set("Content-Length", strconv.FormatInt(length, 10))
	return h
}

// SectionContentType is the media type a client sends in Accept to opt
// into zero-copy section responses, and the Content-Type of those
// responses: a concatenation of still-compressed, self-describing z-slab
// sections (each decodable with codec.Decompress), split by the
// X-Stz-Section-Lengths header.
const SectionContentType = "application/x-stz-section"

// acceptsSection reports whether the request's Accept header lists the
// section media type. Parameters (";q=...") are ignored; wildcards do
// NOT opt in — the client must name the type to prove it can parse the
// sectioned body.
func acceptsSection(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		mt, _, _ := strings.Cut(part, ";")
		if strings.TrimSpace(mt) == SectionContentType {
			return true
		}
	}
	return false
}

// alignedSections reports whether box b covers whole z-slab sections:
// full Y and X extent, with both z edges on chunk boundaries. On success
// it returns the half-open chunk range [i0, i1) the box spans.
func alignedSections(hdr codec.Header, b grid.Box) (i0, i1 int, ok bool) {
	if b.Y0 != 0 || b.Y1 != hdr.Ny || b.X0 != 0 || b.X1 != hdr.Nx {
		return 0, 0, false
	}
	i0, i1 = -1, -1
	for i, z := range hdr.ChunkBounds {
		if z == b.Z0 {
			i0 = i
		}
		if z == b.Z1 {
			i1 = i
		}
	}
	if i0 < 0 || i1 <= i0 {
		return 0, 0, false
	}
	return i0, i1, true
}

// serveBoxSections streams chunks [i0, i1) as stored — the zero-copy
// path. The response carries the exact Content-Length (the sections are
// resident views, so their sizes are known up front), the per-section
// byte lengths for client-side splitting, and the per-section z-plane
// counts for reassembly order. No job slot is claimed: no decode runs.
func (s *Server) serveBoxSections(w http.ResponseWriter, e *archiveEntry, b grid.Box, i0, i1 int) {
	secs := make([][]byte, 0, i1-i0)
	var total int64
	lens := make([]string, 0, i1-i0)
	planes := make([]string, 0, i1-i0)
	bounds := e.hdr().ChunkBounds
	read0, _ := e.q.accounting()
	for i := i0; i < i1; i++ {
		sec, err := e.q.rawSection(i)
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, CodeBadArchive, "%v", err)
			return
		}
		secs = append(secs, sec)
		total += int64(len(sec))
		lens = append(lens, strconv.Itoa(len(sec)))
		planes = append(planes, strconv.Itoa(bounds[i+1]-bounds[i]))
	}
	read1, _ := e.q.accounting()
	h := writeBoxHeaders(w, e, b, SectionContentType, read1-read0, total)
	h.Set("X-Stz-Zero-Copy", "1")
	h.Set("X-Stz-Section-Lengths", strings.Join(lens, ","))
	h.Set("X-Stz-Section-Planes", strings.Join(planes, ","))
	for _, sec := range secs {
		if _, err := w.Write(sec); err != nil {
			log.Printf("archive box: zero-copy write failed mid-stream: %v", err)
			return
		}
	}
	s.zeroCopies.Add(1)
	s.zeroCopyBytes.Add(total)
}

// roiRequest is the POST /v1/archives/{id}/roi body.
type roiRequest struct {
	Mode      string  `json:"mode"`      // "max" (default) or "range"
	Block     int     `json:"block"`     // ROI block size (default 16)
	Threshold float64 `json:"threshold"` // select stat > threshold…
	Top       float64 `json:"top"`       // …or top X percent when > 0
}

type roiRegionJSON struct {
	Box  string  `json:"box"` // z0:z1,y0:y1,x0:x1 — feed back to /box
	Stat float64 `json:"stat"`
}

// handleArchiveROI runs the internal/roi selector server-side over a
// resident archive and returns the selected regions, each addressable
// through the box endpoint.
func (s *Server) handleArchiveROI(w http.ResponseWriter, c *call) {
	var req roiRequest
	if err := json.NewDecoder(bytes.NewReader(c.body)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, CodeBadRequest, "request body: %v", err)
		return
	}
	p := roiParams{block: 16, thresh: req.Threshold, topPct: req.Top}
	if req.Block != 0 {
		if req.Block < 1 {
			httpError(w, http.StatusBadRequest, CodeBadRequest, "block must be >= 1")
			return
		}
		p.block = req.Block
	}
	switch req.Mode {
	case "", "max":
		p.mode = roi.MaxValue
	case "range":
		p.mode = roi.ValueRange
	default:
		httpError(w, http.StatusBadRequest, CodeBadRequest, "mode must be max or range, got %q", req.Mode)
		return
	}
	if !s.acquire(c.r) {
		saturated(w)
		return
	}
	defer s.release()
	res, err := c.e.q.queryROI(p)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, CodeBadArchive, "%v", err)
		return
	}
	regions := make([]roiRegionJSON, 0, len(res.regions))
	for _, reg := range res.regions {
		regions = append(regions, roiRegionJSON{
			Box: fmt.Sprintf("%d:%d,%d:%d,%d:%d",
				reg.Box.Z0, reg.Box.Z1, reg.Box.Y0, reg.Box.Y1, reg.Box.X0, reg.Box.X1),
			Stat: reg.Stat,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"mode":     p.mode.String(),
		"block":    p.block,
		"scanned":  res.scanned,
		"selected": len(regions),
		"coverage": res.coverage,
		"regions":  regions,
	})
}
