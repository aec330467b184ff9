package stzd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
)

// The v1 error contract: every error response is a structured envelope
//
//	{"error": {"code": "<machine_code>", "message": "...", "retryable": bool}}
//
// with a stable machine-readable code, so peers and clients branch on
// the code, not on message text or bare status. The full code table
// lives in docs/API.md; tests assert code+status for every error path.
const (
	// CodeBadRequest: malformed parameters, bodies, or routes (400/404/405).
	CodeBadRequest = "bad_request"
	// CodeBadBox: a box spec that does not parse (400) or does not fit
	// the archive's grid (422).
	CodeBadBox = "bad_box"
	// CodeBadArchive: a body that is not a decodable SZXC archive, or a
	// resident archive that fails to produce a requested window (422).
	CodeBadArchive = "bad_archive"
	// CodeUnknownArchive: no resident archive under that id (404).
	CodeUnknownArchive = "unknown_archive"
	// CodePayloadTooLarge: a body, grid, or archive beyond the configured
	// byte limits (413).
	CodePayloadTooLarge = "payload_too_large"
	// CodePoolSaturated: no job slot became free within the admission
	// wait (503, retryable, carries Retry-After).
	CodePoolSaturated = "pool_saturated"
	// CodeNotOwner: a forwarded request landed on a peer that does not
	// own the archive — the hop guard against forwarding loops when peer
	// topologies disagree (421).
	CodeNotOwner = "not_owner"
	// CodePeerUnreachable: no replica of the archive could be reached —
	// every owner failed a read, or a write missed its majority quorum
	// (503 with Retry-After, retryable).
	CodePeerUnreachable = "peer_unreachable"
	// CodeStaleWrite: the write lost last-writer-wins — the store already
	// holds a strictly newer version or tombstone of the archive (409).
	// Replayed hints and anti-entropy pushes treat this as terminal
	// success: the newer state is the one that should survive.
	CodeStaleWrite = "stale_write"
)

// apiError is the machine-readable half of an error response.
type apiError struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// errorEnvelope is the error response body shape.
type errorEnvelope struct {
	Error apiError `json:"error"`
}

// retryableCode reports whether a code marks a transient condition a
// client should retry against the same endpoint.
func retryableCode(code string) bool {
	return code == CodePoolSaturated || code == CodePeerUnreachable
}

// httpError writes the structured error envelope.
func httpError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorEnvelope{Error: apiError{
		Code:      code,
		Message:   fmt.Sprintf(format, args...),
		Retryable: retryableCode(code),
	}})
}

// writeJSON answers status with v as the JSON body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// requestError answers a request whose body could not be taken: 413
// payload_too_large past -max-body, else 400 bad_request — a short or
// broken body, or one past a route's tighter cap for a small JSON body.
func (s *Server) requestError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) && mbe.Limit == s.opts.MaxBody {
		httpError(w, http.StatusRequestEntityTooLarge, CodePayloadTooLarge, "%v", err)
		return
	}
	httpError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
}

// saturated is the one shape of every admission rejection: 503 with the
// pool_saturated envelope and a Retry-After hint, so callers (and
// forwarding peers, which propagate it verbatim) back off instead of
// holding connections.
func saturated(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	httpError(w, http.StatusServiceUnavailable, CodePoolSaturated, "job pool saturated; retry")
}
