// Package manager turns one process into a multi-tenant graph server: a
// Manager owns a root data directory and hosts many named tenants, each
// a full serve.Service with its own engine, clique size k, and durable
// store under <root>/<tenant>/ (per-tenant WAL, checkpoints, and flock).
//
// The expensive per-process resources are shared across tenants, the
// cheap per-state ones are not:
//
//   - Engine apply parallelism is bounded process-wide through a
//     serve.Gate (Options.ApplyBudget): every tenant's writer acquires a
//     slot around ApplyBatch, and an apply runs on its writer's
//     goroutine, so N tenants with queued writes never take more than
//     ApplyBudget cores of engine maintenance. (The kclique scratch pool
//     is already a package-level sync.Pool and shares itself.)
//   - Response-body caches are strictly per tenant: each Tenant owns one
//     respcache.Snapshot keyed by its own snapshot versions, so a cached
//     body can never be served to another tenant — versions are
//     per-engine counters and would collide across tenants otherwise.
//
// Tenants are lazy: a registered tenant costs a map entry until the
// first Acquire, which serve.Opens its store (exactly once, however many
// requests race the first touch). An idle tenant — no handles held and
// no traffic for Options.IdleClose — is evicted with a clean serve.Close
// (final checkpoint, empty WAL), so the next touch recovers instantly
// and a host can oversubscribe far more tenants than fit in memory.
// Options.MaxTenants caps how many stores are open at once; hitting the
// cap evicts the least-recently-touched idle tenant or, when every open
// tenant is pinned by a handle, fails the new open with ErrTenantLimit.
package manager

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/respcache"
	"repro/internal/serve"
)

// DefaultTenant is the tenant name the root-level (un-prefixed) routes
// of the transports serve, so a single-tenant deployment upgraded to a
// manager keeps answering exactly as before.
const DefaultTenant = "default"

// Sentinel errors. Transports map these to protocol-level statuses
// (unknown tenant → 404, quota → 429, limit → 503, bad name → 400,
// exists → 409).
var (
	ErrUnknownTenant = errors.New("manager: unknown tenant")
	ErrTenantExists  = errors.New("manager: tenant already exists")
	ErrTenantLimit   = errors.New("manager: open-tenant limit reached and no idle tenant to evict")
	ErrQuota         = errors.New("manager: tenant update queue quota exceeded")
	ErrClosed        = errors.New("manager: manager closed")
	ErrBadName       = errors.New("manager: invalid tenant name")
)

// HTTPStatus maps a manager error to the HTTP-equivalent status the
// transports answer with (the wire error frame carries the same code).
func HTTPStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnknownTenant):
		return 404
	case errors.Is(err, ErrBadName):
		return 400
	case errors.Is(err, ErrTenantExists):
		return 409
	case errors.Is(err, ErrQuota):
		return 429
	case errors.Is(err, ErrTenantLimit), errors.Is(err, ErrClosed):
		return 503
	default:
		return 500
	}
}

// Options tunes a Manager; the zero value of every field selects a
// sensible default.
type Options struct {
	// MaxTenants caps concurrently OPEN tenants (registered-but-closed
	// tenants are free). Opening past the cap evicts the least-recently-
	// touched idle tenant first. Default 64.
	MaxTenants int
	// IdleClose, when > 0, closes tenants that have had no handle and no
	// touch for this long. 0 disables idle eviction.
	IdleClose time.Duration
	// MaxQueuedOps is the per-tenant op quota: an Enqueue that would push
	// a tenant's update backlog (serve Stats.QueueDepth) past it fails
	// with ErrQuota instead of blocking the transport goroutine on a
	// neighbour-starved queue. 0 disables the quota.
	MaxQueuedOps int
	// ApplyBudget bounds how many tenants may run engine applies at the
	// same time (each apply is one goroutine, its tenant's writer).
	// Default 2.
	ApplyBudget int
	// Service is the per-tenant serve configuration template. Dir and
	// ApplyGate are owned by the manager and overwritten per tenant.
	Service serve.Options
}

func (o Options) withDefaults() Options {
	if o.MaxTenants <= 0 {
		o.MaxTenants = 64
	}
	if o.ApplyBudget <= 0 {
		o.ApplyBudget = 2
	}
	return o
}

// applyGate is the process-wide engine-apply limiter handed to every
// tenant's serve.Options: a counting semaphore over a buffered channel.
type applyGate chan struct{}

func (g applyGate) Acquire() { g <- struct{}{} }
func (g applyGate) Release() { <-g }

// Manager hosts named tenants under one root directory. Safe for
// concurrent use by any number of goroutines.
type Manager struct {
	root string
	opt  Options
	gate applyGate

	mu      sync.Mutex
	tenants map[string]*Tenant
	open    int // tenants with a live *serve.Service
	closed  bool

	opens     atomic.Uint64 // serve.Open/New calls (first touches + reopens)
	evictions atomic.Uint64 // clean closes by idle/limit eviction

	janitorQuit chan struct{}
	janitorDone chan struct{}
}

// Tenant is one named engine slot. svc is nil while the tenant is
// registered but closed; mu serialises open/close/refcount transitions
// so first-touch opens race to exactly one serve.Open and eviction can
// never close a store a handle still uses.
type Tenant struct {
	name string
	dir  string
	mgr  *Manager

	mu    sync.Mutex
	svc   *serve.Service
	cache *respcache.Snapshot
	refs  int

	lastTouch atomic.Int64 // UnixNano of the last acquire/release/traffic
}

// Open builds a Manager over root, creating the directory if needed and
// registering every subdirectory that already holds a durable store
// (nothing is serve.Opened yet — tenants load lazily on first touch).
func Open(root string, opt Options) (*Manager, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("manager: root %s: %w", root, err)
	}
	m := &Manager{
		root:    root,
		opt:     opt,
		gate:    make(applyGate, opt.ApplyBudget),
		tenants: make(map[string]*Tenant),
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("manager: scan root %s: %w", root, err)
	}
	for _, e := range entries {
		if !e.IsDir() || ValidName(e.Name()) != nil {
			continue
		}
		dir := filepath.Join(root, e.Name())
		if serve.StoreExists(dir) {
			m.tenants[e.Name()] = &Tenant{name: e.Name(), dir: dir, mgr: m}
		}
	}
	if opt.IdleClose > 0 {
		m.janitorQuit = make(chan struct{})
		m.janitorDone = make(chan struct{})
		go m.janitor()
	}
	return m, nil
}

// Root returns the manager's root data directory.
func (m *Manager) Root() string { return m.root }

// Opens returns the cumulative count of store opens (first touches and
// post-eviction reopens); Evictions the cumulative count of idle/limit
// evictions. Test and observability hooks.
func (m *Manager) Opens() uint64     { return m.opens.Load() }
func (m *Manager) Evictions() uint64 { return m.evictions.Load() }

// ValidName reports whether name is an acceptable tenant name: 1–64
// characters of [a-z0-9._-], not starting with '.' or '-'. The charset
// keeps names safe as both path segments under the root directory and
// wire-frame fields.
func ValidName(name string) error {
	if len(name) == 0 || len(name) > 64 {
		return fmt.Errorf("%w: %q (need 1-64 chars)", ErrBadName, name)
	}
	if name[0] == '.' || name[0] == '-' {
		return fmt.Errorf("%w: %q (must not start with '.' or '-')", ErrBadName, name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '.' || c == '_' || c == '-' {
			continue
		}
		return fmt.Errorf("%w: %q (allowed: a-z 0-9 . _ -)", ErrBadName, name)
	}
	return nil
}

// serviceOpts is the per-tenant serve configuration: the caller's
// template with the manager-owned fields filled in.
func (m *Manager) serviceOpts() serve.Options {
	opt := m.opt.Service
	opt.ApplyGate = m.gate
	return opt
}

// TenantConfig describes a tenant to create. K is the clique size
// (default 3). The starting graph is a generated community-social graph
// of Nodes nodes (default 256) when Edges > 0 (Edges is the generator's
// per-hub edge budget), or an empty Nodes-node graph otherwise; Seed
// fixes the generator. Use CreateFromGraph to supply an explicit graph.
type TenantConfig struct {
	K     int
	Nodes int
	Edges int
	Seed  int64
}

// Create registers a new tenant, builds its starting graph and initial
// clique set, and initialises its durable store under <root>/<name>.
// The tenant is left open (and idle-evictable) afterwards.
func (m *Manager) Create(name string, cfg TenantConfig) error {
	if cfg.K <= 0 {
		cfg.K = 3
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 256
	}
	var g *graph.Graph
	var initial [][]int32
	if cfg.Edges > 0 {
		g = gen.CommunitySocial(cfg.Nodes, 8, 0.25, cfg.Edges, cfg.Seed)
		res, err := core.Find(g, core.Options{K: cfg.K, Algorithm: core.LP, Workers: m.opt.Service.Workers})
		if err != nil {
			return fmt.Errorf("manager: create %s: %w", name, err)
		}
		initial = res.Cliques
	} else {
		g = graph.NewBuilder(cfg.Nodes).MustBuild()
	}
	return m.CreateFromGraph(name, g, cfg.K, initial)
}

// CreateFromGraph registers a new tenant over an explicit starting graph
// and initial clique set (nil is completed greedily, as in serve.New)
// and initialises its durable store. The tenant is left open.
func (m *Manager) CreateFromGraph(name string, g *graph.Graph, k int, initial [][]int32) error {
	if err := ValidName(name); err != nil {
		return err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if _, ok := m.tenants[name]; ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrTenantExists, name)
	}
	t := &Tenant{name: name, dir: filepath.Join(m.root, name), mgr: m}
	m.tenants[name] = t
	m.mu.Unlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	unregister := func(err error) error {
		m.mu.Lock()
		delete(m.tenants, name)
		m.mu.Unlock()
		return err
	}
	if serve.StoreExists(t.dir) {
		// A store on disk the scan missed (created behind our back): the
		// name is taken even though the map said otherwise.
		return unregister(fmt.Errorf("%w: %s (store directory already present)", ErrTenantExists, name))
	}
	if err := m.ensureSlot(t); err != nil {
		return unregister(err)
	}
	opt := m.serviceOpts()
	opt.Dir = t.dir
	svc, err := serve.New(g, k, initial, opt)
	if err != nil {
		m.releaseSlot()
		return unregister(fmt.Errorf("manager: create %s: %w", name, err))
	}
	m.opens.Add(1)
	t.svc = svc
	t.cache = new(respcache.Snapshot)
	t.touch()
	return nil
}

// Acquire returns a Handle on the named tenant, serve.Opening its store
// on first touch (or after an eviction). The handle pins the tenant
// open until Release. Concurrent first touches serialise on the
// tenant's lock, so exactly one Open runs however many requests race.
func (m *Manager) Acquire(name string) (*Handle, error) {
	if err := ValidName(name); err != nil {
		return nil, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	t, ok := m.tenants[name]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownTenant, name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.svc == nil {
		if err := m.ensureSlot(t); err != nil {
			return nil, err
		}
		svc, err := serve.Open(t.dir, m.serviceOpts())
		if err != nil {
			m.releaseSlot()
			return nil, fmt.Errorf("manager: open tenant %s: %w", name, err)
		}
		m.opens.Add(1)
		t.svc = svc
		t.cache = new(respcache.Snapshot)
	}
	t.refs++
	t.touch()
	return &Handle{t: t, svc: t.svc, cache: t.cache}, nil
}

// ensureSlot reserves an open-tenant slot for t (whose lock the caller
// holds), evicting least-recently-touched idle tenants as needed. It
// only ever TryLocks OTHER tenants, so two concurrent openers evicting
// for each other cannot deadlock.
func (m *Manager) ensureSlot(t *Tenant) error {
	for {
		m.mu.Lock()
		if m.open < m.opt.MaxTenants {
			m.open++
			m.mu.Unlock()
			return nil
		}
		victims := make([]*Tenant, 0, len(m.tenants))
		for _, v := range m.tenants {
			if v != t {
				victims = append(victims, v)
			}
		}
		m.mu.Unlock()
		sort.Slice(victims, func(i, j int) bool {
			return victims[i].lastTouch.Load() < victims[j].lastTouch.Load()
		})
		if !m.evictOne(victims) {
			return ErrTenantLimit
		}
	}
}

// releaseSlot gives back a slot ensureSlot reserved when the open that
// followed it failed.
func (m *Manager) releaseSlot() {
	m.mu.Lock()
	m.open--
	m.mu.Unlock()
}

// evictOne cleanly closes the first evictable tenant in order: open,
// unpinned, and not locked by a concurrent acquire (TryLock — skipping
// a busy tenant is always safe, blocking on it could deadlock).
func (m *Manager) evictOne(candidates []*Tenant) bool {
	for _, v := range candidates {
		if !v.mu.TryLock() {
			continue
		}
		if v.svc != nil && v.refs == 0 {
			v.closeLocked()
			v.mu.Unlock()
			return true
		}
		v.mu.Unlock()
	}
	return false
}

// closeLocked cleanly closes a tenant's service (final checkpoint, empty
// WAL, flock released) and frees its open slot. Caller holds t.mu.
func (t *Tenant) closeLocked() {
	// Close errors latch in the store itself (a failed final checkpoint
	// leaves the WAL recovery replays); the eviction proceeds regardless
	// so a wedged tenant cannot pin its slot forever.
	t.svc.Close()
	t.svc = nil
	t.cache = nil
	t.mgr.evictions.Add(1)
	t.mgr.mu.Lock()
	t.mgr.open--
	t.mgr.mu.Unlock()
}

func (t *Tenant) touch() { t.lastTouch.Store(time.Now().UnixNano()) }

// janitor is the idle-eviction loop: every quarter of IdleClose it
// closes tenants that are open, unpinned, and untouched for IdleClose.
func (m *Manager) janitor() {
	defer close(m.janitorDone)
	period := m.opt.IdleClose / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-m.janitorQuit:
			return
		case <-tick.C:
		}
		cutoff := time.Now().Add(-m.opt.IdleClose).UnixNano()
		m.mu.Lock()
		all := make([]*Tenant, 0, len(m.tenants))
		for _, t := range m.tenants {
			all = append(all, t)
		}
		m.mu.Unlock()
		for _, t := range all {
			if t.lastTouch.Load() > cutoff {
				continue
			}
			if !t.mu.TryLock() {
				continue
			}
			if t.svc != nil && t.refs == 0 && t.lastTouch.Load() <= cutoff {
				t.closeLocked()
			}
			t.mu.Unlock()
		}
	}
}

// TenantInfo is one row of List.
type TenantInfo struct {
	Name string `json:"name"`
	Open bool   `json:"open"`
	// The remaining fields are zero for closed tenants — reading them
	// would force the store open.
	K       int    `json:"k,omitempty"`
	Nodes   int    `json:"nodes,omitempty"`
	Edges   int    `json:"edges,omitempty"`
	Cliques int    `json:"cliques,omitempty"`
	Version uint64 `json:"version,omitempty"`
	Handles int    `json:"handles,omitempty"`
}

// List returns one row per registered tenant, sorted by name. Closed
// tenants report name and open=false only; opening them just to report
// shape would defeat lazy loading.
func (m *Manager) List() []TenantInfo {
	m.mu.Lock()
	all := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		all = append(all, t)
	}
	m.mu.Unlock()
	sort.Slice(all, func(i, j int) bool { return all[i].name < all[j].name })
	rows := make([]TenantInfo, 0, len(all))
	for _, t := range all {
		row := TenantInfo{Name: t.name}
		t.mu.Lock()
		if t.svc != nil {
			snap := t.svc.Snapshot()
			row.Open = true
			row.K = snap.K()
			row.Nodes = snap.N()
			row.Edges = snap.M()
			row.Cliques = snap.Size()
			row.Version = snap.Version()
			row.Handles = t.refs
		}
		t.mu.Unlock()
		rows = append(rows, row)
	}
	return rows
}

// Close stops the janitor and cleanly closes every open tenant. Further
// Acquire/Create calls fail with ErrClosed; outstanding handles keep
// their (now closed) services, whose reads still answer from the last
// snapshot while writes return serve.ErrClosed. Returns the first
// tenant close error.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	all := make([]*Tenant, 0, len(m.tenants))
	for _, t := range m.tenants {
		all = append(all, t)
	}
	m.mu.Unlock()
	if m.janitorQuit != nil {
		close(m.janitorQuit)
		<-m.janitorDone
	}
	var first error
	for _, t := range all {
		t.mu.Lock()
		if t.svc != nil {
			if err := t.svc.Close(); err != nil && first == nil {
				first = fmt.Errorf("manager: close tenant %s: %w", t.name, err)
			}
			t.svc = nil
			t.cache = nil
			m.mu.Lock()
			m.open--
			m.mu.Unlock()
		}
		t.mu.Unlock()
	}
	return first
}

// Handle is a pinned reference to an open tenant: it satisfies the
// service surface the transports consume (httpapi.Service and the
// framesrv tenant handle) plus accessors for the tenant's private
// response cache and underlying serve.Service. The pin guarantees the
// service cannot be evicted underneath the holder; Release when done —
// a leaked handle pins its tenant open forever.
type Handle struct {
	t        *Tenant
	svc      *serve.Service
	cache    *respcache.Snapshot
	released atomic.Bool
}

// Name returns the tenant's name.
func (h *Handle) Name() string { return h.t.name }

// Snapshot returns the tenant's latest published result snapshot.
func (h *Handle) Snapshot() *dynamic.Snapshot { return h.svc.Snapshot() }

// Stats returns the tenant's serve counters.
func (h *Handle) Stats() serve.Stats { return h.svc.Stats() }

// K returns the tenant's clique size.
func (h *Handle) K() int { return h.svc.K() }

// Published proxies the tenant service's publication broadcast.
func (h *Handle) Published() <-chan struct{} { return h.svc.Published() }

// Cache returns the tenant's private response-body cache. Never shared
// across tenants: snapshot versions are per-engine counters, so a
// shared cache could serve one tenant's body for another's version.
func (h *Handle) Cache() *respcache.Snapshot { return h.cache }

// Service returns the underlying serve.Service, for wiring that needs
// the concrete type (replication attachment, fault injection in tests).
func (h *Handle) Service() *serve.Service { return h.svc }

// Enqueue queues edge updates on the tenant, enforcing the per-tenant
// op quota: an update that would push the tenant's backlog past
// Options.MaxQueuedOps fails fast with ErrQuota instead of blocking the
// transport goroutine behind a saturated queue.
func (h *Handle) Enqueue(ctx context.Context, ops ...graph.Op) error {
	if q := h.t.mgr.opt.MaxQueuedOps; q > 0 {
		if depth := h.svc.Stats().QueueDepth; depth+uint64(len(ops)) > uint64(q) {
			return fmt.Errorf("%w: tenant %s has %d queued ops (limit %d)", ErrQuota, h.t.name, depth, q)
		}
	}
	h.t.touch()
	return h.svc.Enqueue(ctx, ops...)
}

// Flush blocks until the tenant has applied (and made durable)
// everything enqueued before the call.
func (h *Handle) Flush(ctx context.Context) error {
	h.t.touch()
	return h.svc.Flush(ctx)
}

// Release unpins the tenant and restarts its idle clock. Idempotent.
func (h *Handle) Release() {
	if h.released.Swap(true) {
		return
	}
	h.t.mu.Lock()
	h.t.refs--
	h.t.mu.Unlock()
	h.t.touch()
}
