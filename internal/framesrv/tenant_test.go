package framesrv

import (
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/manager"
	"repro/internal/wire"
	"repro/internal/workload"
)

// managerResolver adapts a store manager to the server's tenant hook,
// the way cmd/dkserver wires it.
type managerResolver struct{ mgr *manager.Manager }

func (r managerResolver) AcquireTenant(name string) (TenantHandle, error) {
	h, err := r.mgr.Acquire(name)
	if err != nil {
		return nil, &StatusError{Code: manager.HTTPStatus(err), Err: err}
	}
	return h, nil
}

// newTenantServer builds a manager with a default tenant and a smaller
// "alpha" tenant, and starts a frame server routing through it.
func newTenantServer(t testing.TB) (string, *manager.Manager) {
	t.Helper()
	m, err := manager.Open(t.TempDir(), manager.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	if err := m.Create(manager.DefaultTenant, manager.TenantConfig{K: 3, Nodes: 300, Edges: 600, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Create("alpha", manager.TenantConfig{K: 4, Nodes: 150, Edges: 300, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	h, err := m.Acquire(manager.DefaultTenant)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Release)
	srv := New(h, Options{Tenants: managerResolver{m}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return ln.Addr().String(), m
}

func tenantShape(t *testing.T, m *manager.Manager, name string) (k, n int) {
	t.Helper()
	h, err := m.Acquire(name)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	return h.K(), h.Snapshot().N()
}

// TestTenantFrameRouting: tenant-suffixed request frames answer from the
// named tenant's engine; unsuffixed ones keep answering the default.
func TestTenantFrameRouting(t *testing.T) {
	addr, m := newTenantServer(t)
	defK, defN := tenantShape(t, m, manager.DefaultTenant)
	alphaK, alphaN := tenantShape(t, m, "alpha")
	if defK == alphaK || defN == alphaN {
		t.Fatalf("test tenants collide in shape: default (k=%d n=%d) alpha (k=%d n=%d)", defK, defN, alphaK, alphaN)
	}

	c := dial(t, addr)
	fetch := func() (k, n int) {
		c.SendSnapshot(false)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		f, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		return f.K, f.Nodes
	}
	if k, n := fetch(); k != defK || n != defN {
		t.Fatalf("unsuffixed snapshot (k=%d n=%d), want default (%d, %d)", k, n, defK, defN)
	}
	c.SetTenant("alpha")
	if k, n := fetch(); k != alphaK || n != alphaN {
		t.Fatalf("alpha snapshot (k=%d n=%d), want (%d, %d)", k, n, alphaK, alphaN)
	}
	// Stats and lookups route through the same suffix; interleave tenants
	// on one connection to prove routing is per frame, not per conn.
	c.SendStats()
	c.SetTenant("")
	c.SendStats()
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	fa, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	fd, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	na, _ := fa.Stats.Get("nodes")
	nd, _ := fd.Stats.Get("nodes")
	if int(na) != alphaN || int(nd) != defN {
		t.Fatalf("pipelined stats frames (n=%d, n=%d), want (%d, %d)", na, nd, alphaN, defN)
	}
}

// TestTenantMaxBatch: a tenant-routed batched lookup of MaxOps nodes is
// within the request bound. At the default MaxOps its frame is larger
// than one connection read, so the server checks the bound on a half-read
// request, which must count the tenant suffix.
func TestTenantMaxBatch(t *testing.T) {
	addr, m := newTenantServer(t)
	_, alphaN := tenantShape(t, m, "alpha")
	nodes := make([]int32, Options{}.withDefaults().MaxOps)
	for i := range nodes {
		nodes[i] = int32(i % alphaN)
	}
	c := dial(t, addr)
	c.SetTenant("alpha")
	c.SendCliques(nodes)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := c.Recv()
	if err != nil {
		t.Fatalf("batched lookup of %d nodes for tenant alpha: %v", len(nodes), err)
	}
	if f.Type != wire.FrameCliques || len(f.Lookups) != len(nodes) {
		t.Fatalf("type %d with %d lookups, want a cliques frame with %d", f.Type, len(f.Lookups), len(nodes))
	}
}

// TestTenantFrameErrors: unknown tenants answer an error frame carrying
// the manager's status and message; a server without a resolver rejects
// any tenant-suffixed frame.
func TestTenantFrameErrors(t *testing.T) {
	addr, _ := newTenantServer(t)
	c := dial(t, addr)
	c.SetTenant("nope")
	_, err := c.Snapshot(true)
	if err == nil || !strings.Contains(err.Error(), "server error 404") ||
		!strings.Contains(err.Error(), "unknown tenant") {
		t.Fatalf("unknown tenant over frames: %v, want a 404 error frame with the manager message", err)
	}
	// The connection survives the error frame: the next request answers.
	c.SetTenant("")
	if _, err := c.Snapshot(true); err != nil {
		t.Fatalf("request after tenant error frame: %v", err)
	}

	// Single-tenant server, tenant-suffixed frame: negotiated 404.
	bare, _, _ := newTestServer(t, Options{})
	c2 := dial(t, bare)
	c2.SetTenant("alpha")
	if _, err := c2.Snapshot(true); err == nil || !strings.Contains(err.Error(), "server error 404") {
		t.Fatalf("tenant frame against single-tenant server: %v, want a 404 error frame", err)
	}
}

// TestTenantSubscribe: a tenant-suffixed subscribe streams that tenant's
// deltas and pins it against idle eviction for the stream's lifetime.
func TestTenantSubscribe(t *testing.T) {
	addr, m := newTenantServer(t)
	_, alphaN := tenantShape(t, m, "alpha")
	c := dial(t, addr)
	c.SetTenant("alpha")
	if err := c.Subscribe(); err != nil {
		t.Fatal(err)
	}
	f, err := c.Recv() // the base delta carries the whole current snapshot
	if err != nil {
		t.Fatal(err)
	}
	if f.Nodes != alphaN {
		t.Fatalf("base delta n=%d, want alpha's %d", f.Nodes, alphaN)
	}
	// A flushed update on alpha shows up on the stream.
	h, err := m.Acquire("alpha")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := h.Enqueue(ctx, workload.Op{Insert: true, U: 1, V: 2}, workload.Op{Insert: true, U: 2, V: 3}); err != nil {
		t.Fatal(err)
	}
	if err := h.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	want := h.Snapshot().Version()
	h.Release()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no delta for alpha's update within 5s")
		}
		f, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if f.Version >= want {
			return
		}
	}
}
