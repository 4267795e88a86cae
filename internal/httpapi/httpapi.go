// Package httpapi is the HTTP front end over a serving-layer Service:
// the read endpoints (/snapshot, /clique/{node}, batched /cliques,
// /stats) and the JSON write endpoint (/update) that cmd/dkserver
// exposes. It was carved out of the dkserver binary so the wire-speed
// read path is testable and benchmarkable without a process boundary.
//
// Every read endpoint serves two representations, negotiated by the
// request's Accept header: JSON (the default) and the compact binary
// frames of internal/wire (Accept: application/x-dkclique-frame). The
// /snapshot bodies — the only responses whose size grows with |S| — are
// memoized against the snapshot's MVCC version in all four variants
// (JSON/binary × full/lean), so the read-dominated steady state answers
// with a pre-encoded byte slice: no marshalling, no allocation, one
// atomic load to validate freshness. Invalidation is free because the
// engine bumps the version on every published update.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/dynamic"
	"repro/internal/graph"
	"repro/internal/manager"
	"repro/internal/respcache"
	"repro/internal/serve"
	"repro/internal/wire"
)

// Service is the serving surface the API runs over. Both
// *serve.Service and the public dkclique.Service satisfy it.
type Service interface {
	// Snapshot returns the latest published result snapshot.
	Snapshot() *dynamic.Snapshot
	// Stats returns the service activity counters.
	Stats() serve.Stats
	// K returns the clique size.
	K() int
	// Enqueue queues edge updates for the single writer.
	Enqueue(ctx context.Context, ops ...graph.Op) error
	// Flush blocks until everything enqueued before it has been applied.
	Flush(ctx context.Context) error
}

// Options bounds and tunes a handler; the zero value picks the dkserver
// flag defaults.
type Options struct {
	// MaxOps caps the ops accepted per /update request and the node ids
	// per batched /cliques lookup. Default 8192.
	MaxOps int
	// MaxBody caps the /update request body in bytes. Default 1 MiB.
	MaxBody int64
	// Cache is the shared snapshot-body cache. cmd/dkserver passes one
	// instance to both the HTTP handler and the TCP frame server so the
	// two transports answer from the same pre-encoded bytes. Nil gets a
	// private instance.
	Cache *respcache.Snapshot
	// Ready is the /readyz probe: nil error means the process may take
	// traffic. A primary is ready once recovery completed and the writer
	// is serving; a follower once it holds an installed snapshot, is
	// connected to its primary, and its replication lag is under bound.
	// Leaving Ready nil makes /readyz always succeed — New returning a
	// handler implies the service behind it is already up.
	Ready func() error
}

func (o Options) withDefaults() Options {
	if o.MaxOps <= 0 {
		o.MaxOps = 8192
	}
	if o.MaxBody <= 0 {
		o.MaxBody = 1 << 20
	}
	return o
}

// handler is the API over one Service.
type handler struct {
	svc Service
	opt Options
	mux *http.ServeMux

	// cache memoizes the fully encoded /snapshot bodies (one slot per
	// representation) against the snapshot version that produced them.
	// Possibly shared with other transports via Options.Cache.
	cache *respcache.Snapshot
}

// New builds the HTTP API over a running service.
func New(svc Service, opt Options) http.Handler {
	h := &handler{svc: svc, opt: opt.withDefaults(), mux: http.NewServeMux()}
	h.cache = h.opt.Cache
	if h.cache == nil {
		h.cache = new(respcache.Snapshot)
	}
	h.mux.HandleFunc("GET /snapshot", h.getSnapshot)
	h.mux.HandleFunc("GET /clique/{node}", h.getClique)
	h.mux.HandleFunc("GET /cliques", h.getCliques)
	h.mux.HandleFunc("GET /stats", h.getStats)
	h.mux.HandleFunc("POST /update", h.postUpdate)
	h.mux.HandleFunc("GET /healthz", h.getHealthz)
	h.mux.HandleFunc("GET /readyz", h.getReadyz)
	return h
}

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(&muxErrorWriter{ResponseWriter: w, r: r}, r)
}

// muxErrorWriter intercepts the stdlib mux's fallback responses — the
// plain-text 404 for unmatched routes and 405 for method mismatches —
// and re-answers them in the negotiated representation (JSON object or
// binary error frame), like every handler-produced error. Handlers that
// answer those statuses deliberately (an unknown tenant is a 404) go
// through writeError, which flips deliberate so the handler's own
// negotiated body passes through untouched; only the mux's bare
// WriteHeader(404/405) is re-answered. The Allow header the mux sets
// on a 405 survives (it lands in the header map before WriteHeader).
type muxErrorWriter struct {
	http.ResponseWriter
	r           *http.Request
	intercepted bool
	deliberate  bool
}

func (w *muxErrorWriter) WriteHeader(code int) {
	if !w.deliberate && (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) {
		w.intercepted = true
		msg := "not found"
		if code == http.StatusMethodNotAllowed {
			msg = "method not allowed"
		}
		writeError(w.ResponseWriter, w.r, code, msg)
		return
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *muxErrorWriter) Write(p []byte) (int, error) {
	if w.intercepted {
		// Swallow the stdlib plain-text body; the negotiated one is out.
		return len(p), nil
	}
	return w.ResponseWriter.Write(p)
}

// wantBinary reports whether the client asked for binary frames: the
// Accept header, parsed as a comma-separated list of media ranges, must
// contain the frame media type with a nonzero quality. A plain
// strings.Contains would mis-negotiate lists and quality values —
// "application/x-dkclique-frame;q=0" explicitly refuses binary, and a
// parameter or suffix mentioning the type must not select it.
func wantBinary(r *http.Request) bool {
	return acceptsFrames(r.Header.Get("Accept"))
}

// acceptsFrames parses an Accept header value. It deliberately ignores
// wildcards ("*/*", "application/*"): JSON is the default
// representation, and a generic client that accepts anything should
// keep getting it.
func acceptsFrames(accept string) bool {
	for len(accept) > 0 {
		var r string
		if i := strings.IndexByte(accept, ','); i >= 0 {
			r, accept = accept[:i], accept[i+1:]
		} else {
			r, accept = accept, ""
		}
		// Split the media type from its parameters (q=..., etc).
		mediaType := r
		var params string
		if i := strings.IndexByte(r, ';'); i >= 0 {
			mediaType, params = r[:i], r[i+1:]
		}
		if !strings.EqualFold(strings.TrimSpace(mediaType), wire.ContentType) {
			continue
		}
		if q, ok := acceptQuality(params); ok && q == 0 {
			continue // explicitly refused: "…;q=0"
		}
		return true
	}
	return false
}

// acceptQuality extracts the q parameter of one media range's parameter
// list, reporting whether one was present. Malformed q values are
// treated as absent (quality 1), matching the lenient server behaviour
// RFC 9110 suggests.
func acceptQuality(params string) (float64, bool) {
	for len(params) > 0 {
		var p string
		if i := strings.IndexByte(params, ';'); i >= 0 {
			p, params = params[:i], params[i+1:]
		} else {
			p, params = params, ""
		}
		key, val, ok := strings.Cut(p, "=")
		if !ok || !strings.EqualFold(strings.TrimSpace(key), "q") {
			continue
		}
		q, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || q < 0 || q > 1 {
			return 0, false
		}
		return q, true
	}
	return 0, false
}

// getSnapshot serves the point-in-time result set. The encoded body is
// memoized per (version, representation): the common read-dominated
// steady state is one atomic cache load plus a memcpy onto the wire.
func (h *handler) getSnapshot(w http.ResponseWriter, r *http.Request) {
	snap := h.svc.Snapshot()
	lean := r.URL.Query().Get("cliques") == "0"
	bin := wantBinary(r)
	var body []byte
	if bin {
		body = h.cache.Binary(snap, lean)
	} else {
		cache := &h.cache.JSONFull
		if lean {
			cache = &h.cache.JSONLean
		}
		body = cache.Get(snap.Version(), func() []byte {
			return encodeSnapshotJSON(snap, lean)
		})
	}
	writeBody(w, http.StatusOK, contentType(bin), body)
}

// encodeSnapshotJSON builds a JSON snapshot body; the binary bodies are
// built by respcache.Snapshot.Binary, which the TCP transport shares.
func encodeSnapshotJSON(snap *dynamic.Snapshot, lean bool) []byte {
	resp := SnapshotResponse{
		Version: snap.Version(),
		K:       snap.K(),
		Nodes:   snap.N(),
		Edges:   snap.M(),
		Size:    snap.Size(),
	}
	if !lean {
		resp.Cliques = snap.Cliques()
	}
	return appendJSON(nil, &resp)
}

// getClique serves one point lookup. Out-of-range ids are a client
// error, as in /update: respcache.Clique rejects them.
func (h *handler) getClique(w http.ResponseWriter, r *http.Request) {
	u, err := strconv.ParseInt(r.PathValue("node"), 10, 32)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, "bad node id")
		return
	}
	snap := h.svc.Snapshot()
	c, err := respcache.Clique(snap, int32(u))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if wantBinary(r) {
		buf := getBuf()
		defer putBuf(buf)
		*buf = wire.AppendCliqueFrame((*buf)[:0], snap.Version(), int32(u), snap.K(), c)
		writeBody(w, http.StatusOK, wire.ContentType, *buf)
		return
	}
	writeJSON(w, http.StatusOK, CliqueResponse{
		Node:    int32(u),
		Version: snap.Version(),
		Covered: c != nil,
		Clique:  c,
	})
}

// getCliques resolves a batched lookup — GET /cliques?nodes=1,2,3 —
// against one snapshot through respcache.Cliques: one round trip, one
// consistent version, each distinct clique once in the response, and
// per-node results pointing into the clique list by index (-1 for
// uncovered nodes).
func (h *handler) getCliques(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("nodes")
	if q == "" {
		writeError(w, r, http.StatusBadRequest, "nodes parameter required (nodes=1,2,3)")
		return
	}
	// Parsed into a stack array: a typical batch never reaches the heap.
	var stack [64]int32
	nodes := stack[:0]
	for len(q) > 0 {
		if len(nodes) == h.opt.MaxOps {
			writeError(w, r, http.StatusBadRequest,
				fmt.Sprintf("more than %d nodes in one batch", h.opt.MaxOps))
			return
		}
		var tok string
		if i := strings.IndexByte(q, ','); i >= 0 {
			tok, q = q[:i], q[i+1:]
		} else {
			tok, q = q, ""
		}
		u, err := strconv.ParseInt(tok, 10, 32)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, "bad node id "+strconv.Quote(tok))
			return
		}
		nodes = append(nodes, int32(u))
	}
	snap := h.svc.Snapshot()
	cliques, lookups, err := respcache.Cliques(snap, nodes)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err.Error())
		return
	}
	if wantBinary(r) {
		buf := getBuf()
		defer putBuf(buf)
		*buf = wire.AppendCliquesFrame((*buf)[:0], snap.Version(), snap.K(), cliques, lookups)
		writeBody(w, http.StatusOK, wire.ContentType, *buf)
		return
	}
	writeJSON(w, http.StatusOK, CliquesResponse{
		Version: snap.Version(),
		K:       snap.K(),
		Cliques: cliques,
		Results: lookups,
	})
}

// getStats serves the counters of respcache's table, as a stats frame
// or a JSON object. Deliberately uncached: several counters (Enqueued,
// Flushes) move without a snapshot publication, so version-keyed
// memoization would serve stale numbers.
func (h *handler) getStats(w http.ResponseWriter, r *http.Request) {
	snap := h.svc.Snapshot()
	st := h.svc.Stats()
	buf := getBuf()
	defer putBuf(buf)
	bin := wantBinary(r)
	if bin {
		*buf = respcache.AppendStatsFrame((*buf)[:0], snap, st)
	} else {
		*buf = respcache.AppendStatsJSON((*buf)[:0], snap, st)
	}
	writeBody(w, http.StatusOK, contentType(bin), *buf)
}

// getHealthz is the liveness probe: the process is serving HTTP. It
// deliberately touches no service state — a wedged writer or a lagging
// follower is a readiness problem, not a liveness one, and restarting
// the process for it would only lose the recovery work.
func (h *handler) getHealthz(w http.ResponseWriter, _ *http.Request) {
	writeBody(w, http.StatusOK, "text/plain; charset=utf-8", []byte("ok\n"))
}

// getReadyz is the readiness probe: 200 when Options.Ready (if set)
// reports nil, 503 with the reason otherwise. Load balancers drain a
// not-ready instance without killing it.
func (h *handler) getReadyz(w http.ResponseWriter, _ *http.Request) {
	if h.opt.Ready != nil {
		if err := h.opt.Ready(); err != nil {
			writeBody(w, http.StatusServiceUnavailable, "text/plain; charset=utf-8",
				[]byte("not ready: "+err.Error()+"\n"))
			return
		}
	}
	writeBody(w, http.StatusOK, "text/plain; charset=utf-8", []byte("ready\n"))
}

// postUpdate accepts a JSON batch of edge updates, validates it up
// front (the engine panics on out-of-range ids by design) and enqueues
// it; with "flush": true it waits for application before answering.
func (h *handler) postUpdate(w http.ResponseWriter, r *http.Request) {
	// Bound the body before a byte is parsed: a hostile multi-gigabyte
	// payload must die at the transport, not as a decoded slice.
	r.Body = http.MaxBytesReader(w, r.Body, h.opt.MaxBody)
	var req UpdateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, r, http.StatusBadRequest,
				fmt.Sprintf("request body exceeds %d bytes", h.opt.MaxBody))
			return
		}
		// Covers malformed JSON and non-integer coordinates alike: the
		// decoder rejects fractional, out-of-range, and non-numeric
		// u/v values before they can reach the engine.
		writeError(w, r, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, r, http.StatusBadRequest, "no ops")
		return
	}
	if len(req.Ops) > h.opt.MaxOps {
		writeError(w, r, http.StatusBadRequest,
			fmt.Sprintf("%d ops exceeds the per-request limit of %d", len(req.Ops), h.opt.MaxOps))
		return
	}
	n := h.svc.Snapshot().N()
	ops := make([]graph.Op, len(req.Ops))
	for i, op := range req.Ops {
		ops[i] = graph.Op(op)
		if !ops[i].Valid(n) {
			writeError(w, r, http.StatusBadRequest,
				fmt.Sprintf("op %d: invalid edge (%d,%d) for %d nodes", i, op.U, op.V, n))
			return
		}
	}
	if err := h.svc.Enqueue(r.Context(), ops...); err != nil {
		// A follower refusing writes is a routing mistake by the client,
		// not a service outage: 403 tells it to find the primary, and
		// load balancers must not retry it against the same backend.
		if errors.Is(err, serve.ErrNotPrimary) {
			writeError(w, r, http.StatusForbidden, err.Error())
			return
		}
		// A tenant over its op quota is backpressure, not an outage: 429
		// tells the client to slow down on THIS tenant while the process
		// keeps serving the others.
		if errors.Is(err, manager.ErrQuota) {
			writeError(w, r, http.StatusTooManyRequests, err.Error())
			return
		}
		writeError(w, r, http.StatusServiceUnavailable, err.Error())
		return
	}
	if req.Flush {
		if err := h.svc.Flush(r.Context()); err != nil {
			writeError(w, r, http.StatusServiceUnavailable, err.Error())
			return
		}
	}
	snap := h.svc.Snapshot()
	writeJSON(w, http.StatusAccepted, UpdateResponse{
		Enqueued: len(ops),
		Flushed:  req.Flush,
		Version:  snap.Version(),
		Size:     snap.Size(),
	})
}

// SnapshotResponse is the JSON body of GET /snapshot.
type SnapshotResponse struct {
	Version uint64    `json:"version"`
	K       int       `json:"k"`
	Nodes   int       `json:"nodes"`
	Edges   int       `json:"edges"`
	Size    int       `json:"size"`
	Cliques [][]int32 `json:"cliques,omitempty"`
}

// CliqueResponse is the JSON body of GET /clique/{node}.
type CliqueResponse struct {
	Node    int32   `json:"node"`
	Version uint64  `json:"version"`
	Covered bool    `json:"covered"`
	Clique  []int32 `json:"clique,omitempty"`
}

// CliquesResponse is the JSON body of the batched GET /cliques lookup:
// the deduplicated cliques the queried nodes belong to, plus one result
// per queried node pointing into Cliques by index (-1 = uncovered).
type CliquesResponse struct {
	Version uint64        `json:"version"`
	K       int           `json:"k"`
	Cliques [][]int32     `json:"cliques"`
	Results []wire.Lookup `json:"results"`
}

// UpdateRequest is the JSON body of POST /update.
type UpdateRequest struct {
	Ops []struct {
		Insert bool  `json:"insert"`
		U      int32 `json:"u"`
		V      int32 `json:"v"`
	} `json:"ops"`
	Flush bool `json:"flush"`
}

// UpdateResponse is the JSON body of a successful POST /update.
type UpdateResponse struct {
	Enqueued int    `json:"enqueued"`
	Flushed  bool   `json:"flushed"`
	Version  uint64 `json:"version"`
	Size     int    `json:"size"`
}
