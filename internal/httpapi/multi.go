package httpapi

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"repro/internal/manager"
)

// Multi-tenant routing. NewMulti serves the same endpoint set as New,
// twice over:
//
//	/t/{tenant}/snapshot|clique/{node}|cliques|stats|update
//	    tenant-scoped — every request acquires the named tenant from the
//	    manager (opening it lazily on first touch), answers against its
//	    engine and private response cache, and releases it.
//	/snapshot etc. at the root
//	    compatibility — identical handlers bound to the "default"
//	    tenant, so a pre-multi-tenant client keeps working unchanged.
//
// plus the admin surface:
//
//	GET  /tenants         list registered tenants (open ones with shape)
//	POST /tenants/{name}  create a tenant; optional JSON body
//	                      {"k","nodes","edges","seed"} (manager.TenantConfig)
//
// Unknown tenants, bad names, quota and capacity failures answer with
// the negotiated representation at the manager-mapped status (404, 400,
// 429, 503); unmatched routes and method mismatches go through the same
// muxErrorWriter interception as the single-tenant handler.

// multi is the API over a tenant manager.
type multi struct {
	mgr *manager.Manager
	opt Options
	mux *http.ServeMux
	// probe carries the tenant-independent endpoints (healthz/readyz),
	// which touch nothing but Options.
	probe *handler
}

// NewMulti builds the multi-tenant HTTP API over a store manager.
// Options.Cache is ignored: caching is per tenant, owned by the
// manager.
func NewMulti(mgr *manager.Manager, opt Options) http.Handler {
	m := &multi{mgr: mgr, opt: opt.withDefaults(), mux: http.NewServeMux()}
	m.probe = &handler{opt: m.opt}
	type method = func(*handler, http.ResponseWriter, *http.Request)
	for _, ep := range []struct {
		pattern string // sub-path with method, e.g. "GET snapshot"
		verb    string
		path    string
		fn      method
	}{
		{verb: "GET", path: "snapshot", fn: (*handler).getSnapshot},
		{verb: "GET", path: "clique/{node}", fn: (*handler).getClique},
		{verb: "GET", path: "cliques", fn: (*handler).getCliques},
		{verb: "GET", path: "stats", fn: (*handler).getStats},
		{verb: "POST", path: "update", fn: (*handler).postUpdate},
	} {
		fn := ep.fn
		m.mux.HandleFunc(ep.verb+" /t/{tenant}/"+ep.path, func(w http.ResponseWriter, r *http.Request) {
			m.serveTenant(r.PathValue("tenant"), fn, w, r)
		})
		m.mux.HandleFunc(ep.verb+" /"+ep.path, func(w http.ResponseWriter, r *http.Request) {
			m.serveTenant(manager.DefaultTenant, fn, w, r)
		})
	}
	m.mux.HandleFunc("GET /tenants", m.listTenants)
	m.mux.HandleFunc("POST /tenants/{name}", m.createTenant)
	m.mux.HandleFunc("GET /healthz", m.probe.getHealthz)
	m.mux.HandleFunc("GET /readyz", m.probe.getReadyz)
	return m
}

func (m *multi) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.mux.ServeHTTP(&muxErrorWriter{ResponseWriter: w, r: r}, r)
}

// serveTenant pins the tenant for the request's duration and dispatches
// to the single-tenant handler method over the tenant's own service and
// response cache — the whole endpoint surface is shared code; only the
// binding differs per request.
func (m *multi) serveTenant(name string, fn func(*handler, http.ResponseWriter, *http.Request), w http.ResponseWriter, r *http.Request) {
	hdl, err := m.mgr.Acquire(name)
	if err != nil {
		writeError(w, r, manager.HTTPStatus(err), err.Error())
		return
	}
	defer hdl.Release()
	fn(&handler{svc: hdl, opt: m.opt, cache: hdl.Cache()}, w, r)
}

// TenantsResponse is the JSON body of GET /tenants.
type TenantsResponse struct {
	Tenants []manager.TenantInfo `json:"tenants"`
}

func (m *multi) listTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, TenantsResponse{Tenants: m.mgr.List()})
}

func (m *multi) createTenant(w http.ResponseWriter, r *http.Request) {
	var cfg manager.TenantConfig
	r.Body = http.MaxBytesReader(w, r.Body, m.opt.MaxBody)
	if err := json.NewDecoder(r.Body).Decode(&cfg); err != nil && !errors.Is(err, io.EOF) {
		// An empty body means an all-defaults tenant; anything else must
		// be well-formed TenantConfig JSON.
		writeError(w, r, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	name := r.PathValue("name")
	if err := m.mgr.Create(name, cfg); err != nil {
		writeError(w, r, manager.HTTPStatus(err), err.Error())
		return
	}
	for _, info := range m.mgr.List() {
		if info.Name == name {
			writeJSON(w, http.StatusCreated, info)
			return
		}
	}
	// Created and already evicted+deregistered is impossible (Create
	// leaves the tenant registered), but answer something sane anyway.
	writeJSON(w, http.StatusCreated, manager.TenantInfo{Name: name})
}
