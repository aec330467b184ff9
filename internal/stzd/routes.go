package stzd

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// placement is where a route's work happens.
type placement int

const (
	placeLocal placement = iota // on the node addressed
	placeWrite                  // on every owner of the archive; a majority must ack
	placeRead                   // on this node when it owns the archive, else the first owner that holds it
)

// route is one row of the route table.
type route struct {
	method, pattern string // method "" serves every method
	place           placement
	// body caps the request body. An archive route reads it whole before
	// placement (readCapped: one buffer of its declared length), so
	// fan-out legs, failover attempts and the local handler share one
	// copy; a placeLocal route streams it.
	body int64
	h    func(http.ResponseWriter, *call)
}

// call is one request as the chain hands it to a handler.
type call struct {
	r    *http.Request
	id   string        // the {id} path value, "" outside the archive routes
	body []byte        // the body an archive route read, nil when it takes none
	e    *archiveEntry // the resident archive of a read route
}

// routes is the route table: the only place a route's method and pattern
// appear. Methods sharing a pattern are listed in the order its 405
// Allow header names them.
func (s *Server) routes() []route {
	rs := []route{
		{"GET", "/healthz", placeLocal, 0, s.handleHealth},
		{"GET", "/v1/codecs", placeLocal, 0, s.handleCodecs},
		{"GET", "/v1/stats", placeLocal, 0, s.handleStats},
		{"POST", "/v1/compress", placeLocal, s.opts.MaxBody, s.handleCompress},
		{"POST", "/v1/decompress", placeLocal, s.opts.MaxBody, s.handleDecompress},
		{"GET", "/v1/archives", placeLocal, 0, s.handleArchiveList},
		// Manifest and raw are deliberately local: they describe and serve
		// THIS node's store (the repair paths fetch a specific replica's
		// copy), so forwarding them would defeat their purpose.
		{"GET", "/v1/manifest", placeLocal, 0, s.handleManifest},
		{"GET", "/v1/archives/{id}/raw", placeLocal, 0, s.handleArchiveRaw},
		{"GET", "/v1/archives/{id}", placeRead, 0, s.handleArchiveInfo},
		{"PUT", "/v1/archives/{id}", placeWrite, s.opts.MaxBody, s.handleArchivePut},
		{"DELETE", "/v1/archives/{id}", placeWrite, 0, s.handleArchiveDelete},
		{"GET", "/v1/archives/{id}/box", placeRead, 0, s.handleArchiveBox},
		{"POST", "/v1/archives/{id}/roi", placeRead, 1 << 20, s.handleArchiveROI}, // a small JSON document
		{"", "/", placeLocal, 0, notFound},
	}
	if s.opts.EnablePprof {
		for name, h := range map[string]http.HandlerFunc{"": pprof.Index, "cmdline": pprof.Cmdline,
			"profile": pprof.Profile, "symbol": pprof.Symbol, "trace": pprof.Trace} {
			rs = append(rs, route{pattern: "/debug/pprof/" + name, h: func(w http.ResponseWriter, c *call) { h(w, c.r) }})
		}
	}
	return rs
}

// mount registers the route table on the mux, each route behind the
// chain. A pattern with methods also gets a fallback for every other
// verb: 405 with the Allow header and the JSON error envelope (the bare
// ServeMux 405 is plain text).
func (s *Server) mount() {
	allow := map[string]string{}
	for _, rt := range s.routes() {
		s.mux.HandleFunc(strings.TrimSpace(rt.method+" "+rt.pattern), s.chain(rt))
		if rt.method != "" {
			allow[rt.pattern] = strings.TrimPrefix(allow[rt.pattern]+", "+rt.method, ", ")
		}
	}
	for pattern, methods := range allow {
		s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", methods)
			httpError(w, http.StatusMethodNotAllowed, CodeBadRequest,
				"method %s not allowed here (allow: %s)", r.Method, methods)
		})
	}
}

// ServeHTTP is the edge every request crosses first. It separates peer
// traffic (X-Stz-Forwarded) from client traffic: a write's last-writer-
// wins stamp is honoured only from a peer, so a client cannot pin an
// archive with a far-future X-Stz-Write-Time that every later write then
// loses to.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(ForwardedHeader) == "" {
		r.Header.Del(WriteTimeHeader)
	}
	s.mux.ServeHTTP(w, r)
}

// chain is the one request path of every route, after the edge: hop
// guard → body read → placement → entry lookup (serve) → handler, which
// validates before it claims a job slot. A forwarded archive request is
// a replica apply, served from the local store; a fresh one makes this
// node the coordinator: writes fan out to all owners, reads walk them
// with failover, this node first when it is one of them. Without a ring
// everything is served locally.
func (s *Server) chain(rt route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c := &call{r: r, id: r.PathValue("id")}
		var owners []string
		if rt.place != placeLocal && s.ring != nil {
			owners = s.ring.Owners(c.id, s.opts.Replicas)
		}
		self := indexOf(owners, s.opts.Self)
		from := r.Header.Get(ForwardedHeader)
		if owners != nil && from != "" && self < 0 {
			s.notOwner.Add(1)
			httpError(w, http.StatusMisdirectedRequest, CodeNotOwner,
				"archive %q is owned by %v, not %s (request forwarded by %s; peer topologies disagree)",
				c.id, owners, s.opts.Self, from)
			return
		}
		if rt.body > 0 {
			body := http.MaxBytesReader(w, r.Body, rt.body)
			if rt.place == placeLocal {
				r.Body = body
			} else {
				var err error
				if c.body, err = readCapped(body, r.ContentLength, rt.body); err != nil {
					s.requestError(w, err)
					return
				}
			}
		}
		switch {
		case owners == nil || from != "":
			s.serve(w, c, rt, self)
		case rt.place == placeWrite:
			s.fanoutWrite(w, c, rt, owners)
		default:
			s.readFailover(w, c, rt, owners, self)
		}
	}
}

// serve runs rt's handler against this node's own store as replica idx of
// the archive's owner list (-1 when the route is not placed on owners). A
// read route's archive is looked up here, so a miss is the same 404 on
// every read route.
func (s *Server) serve(w http.ResponseWriter, c *call, rt route, idx int) {
	if idx >= 0 {
		w.Header().Set(ServedByHeader, s.opts.Self)
		w.Header().Set(ReplicaHeader, strconv.Itoa(idx))
	}
	if rt.place == placeRead {
		var ok bool
		if c.e, ok = s.store.get(c.id); !ok {
			httpError(w, http.StatusNotFound, CodeUnknownArchive, "unknown archive %q", c.id)
			return
		}
	}
	rt.h(w, c)
}

// notFound answers a path no route serves.
func notFound(w http.ResponseWriter, c *call) {
	httpError(w, http.StatusNotFound, CodeBadRequest, "no route for %s", c.r.URL.Path)
}
