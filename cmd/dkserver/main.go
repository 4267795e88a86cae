// Command dkserver serves a continuously updated disjoint k-clique set
// over HTTP: it loads (or generates) a graph, solves it with a static
// algorithm, then keeps the result fresh behind a serving-layer service
// (internal/serve) — a single writer draining queued updates into
// batched engine calls while read requests answer from immutable
// snapshots, lock-free.
//
// Usage:
//
//	dkserver -k 4 -alg LP -input graph.txt -addr :8080
//	dkserver -k 3 -dataset HST
//	dkserver -k 3 -gen 10000,20000,1        # synthetic community graph
//	dkserver -k 3 -gen 10000,20000,1 -data /var/lib/dkclique
//	dkserver -k 3 -dataset HST -tcp :8081   # + raw TCP frame transport
//
// With -data, the service is durable: updates are written ahead to a log
// under the directory and the engine state is checkpointed periodically
// and on shutdown. When the directory already holds a store, dkserver
// ignores the graph flags and resumes the persisted state (checkpoint +
// WAL replay) instead of re-solving. SIGINT/SIGTERM trigger a graceful
// shutdown: the listener drains in-flight requests, the update queue
// drains into the engine, and a final checkpoint lands before exit.
//
// Endpoints (served by internal/httpapi; every GET also answers with
// compact binary frames under "Accept: application/x-dkclique-frame",
// and /snapshot bodies are cached against the snapshot version):
//
//	GET  /snapshot            point-in-time result set; ?cliques=0 omits members
//	GET  /clique/{node}       the clique covering a node, if any
//	GET  /cliques?nodes=1,2,3 batched lookup against one snapshot, deduplicated
//	GET  /stats               "version" plus every service and engine counter
//	POST /update              {"ops":[{"insert":true,"u":1,"v":2},...],"flush":true}
//
// With -tcp ADDR a second, wire-native transport listens alongside HTTP:
// persistent connections speaking internal/wire request/response frames
// with pipelining, plus a subscribe mode that pushes snapshot deltas
// (see internal/framesrv and wire.Client). Both transports
// answer every read through internal/respcache — one snapshot-body
// cache, one lookup resolver, one table of stats counters — so a binary
// body is the same bytes on either, and a graceful shutdown drains both
// listeners before the final checkpoint.
//
// Replication: with -tcp set, the process also serves replication
// streams to followers under the fencing epoch given by -epoch
// (monotone across primary handoffs — bump it on every failover). The
// primary checkpoints every -checkpoint applied ops (in memory when it
// has no -data) and keeps the shipped history back to its latest
// checkpoint. A follower process runs with -follow PRIMARY_TCP_ADDR
// instead of the graph flags: it installs the primary's latest
// checkpoint (or resumes its own -data store), applies the shipped
// batch stream, serves reads over both transports, and answers /readyz
// by its replication state (installed + connected + lag within
// -readylag). Writes against a follower are refused with 403.
//
//	dkserver -k 3 -dataset HST -tcp :8081 -epoch 1            # primary
//	dkserver -follow primary:8081 -addr :8090 -data /var/f1   # follower
//
// Multi-tenant serving: with -root DIR the process becomes a store
// manager hosting many named graph engines under one directory, each a
// full engine + WAL + checkpoint store in DIR/<name> behind its own
// flock. The graph flags seed the "default" tenant on first boot (an
// empty graph when absent); -tenants NAME[:K[:NODES[:EDGES[:SEED]]]],...
// bootstraps more, and POST /tenants/{name} creates them at runtime
// (GET /tenants lists them). The root-level endpoints keep serving
// "default" unchanged; a /t/{tenant}/ prefix (HTTP) or a tenant-
// suffixed request frame (TCP) targets any other. Tenants open lazily
// on first touch, close cleanly after -idleclose of idleness, and at
// most -maxtenants stores are open at once (least-recently-used idle
// tenants are evicted first). Replication attaches to the default
// tenant only.
//
//	dkserver -root /var/lib/dk -gen 10000,20000,1 -tenants alpha:4,beta:3:5000:20000:7
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dynamic"
	"repro/internal/framesrv"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/manager"
	"repro/internal/repl"
	"repro/internal/respcache"
	"repro/internal/serve"
	"repro/internal/wal"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "HTTP listen address")
		tcpAddr     = flag.String("tcp", "", "raw TCP frame-transport listen address (empty = disabled)")
		inputPath   = flag.String("input", "", "edge-list file to read")
		dsName      = flag.String("dataset", "", "built-in dataset name instead of -input")
		genSpec     = flag.String("gen", "", "generate a community graph: NODES,EDGES,SEED")
		k           = flag.Int("k", 3, "clique size (>= 3)")
		algName     = flag.String("alg", "LP", "static algorithm for the initial set")
		workers     = flag.Int("workers", 0, "worker goroutines for the solve and the engine's index builds (0 = GOMAXPROCS)")
		queueCap    = flag.Int("queue", 0, "update queue capacity (0 = default)")
		maxBatch    = flag.Int("batch", 0, "max ops coalesced per engine batch (0 = default)")
		dataDir     = flag.String("data", "", "durable store directory (WAL + checkpoints); empty = in-memory")
		fsyncMode   = flag.String("fsync", "batch", `WAL sync policy with -data: "batch" or "none"`)
		ckptEvery   = flag.Int("checkpoint", 0, "applied ops between checkpoints with -data or -tcp; followers install from the latest (0 = default). A durable follower checkpoints every -checkpoint replicated ops")
		maxOps      = flag.Int("maxops", 8192, "maximum ops per /update request and nodes per /cliques batch")
		maxBody     = flag.Int64("maxbody", 1<<20, "maximum /update request body bytes")
		drain       = flag.Duration("drain", 15*time.Second, "graceful-shutdown timeout for in-flight requests")
		follow      = flag.String("follow", "", "replicate from this primary frame-transport address (follower mode)")
		epoch       = flag.Uint64("epoch", 1, "replication fencing epoch with -tcp; bump on every primary handoff")
		readyLag    = flag.Uint64("readylag", 1024, "follower replication lag above which /readyz reports 503")
		rootDir     = flag.String("root", "", "multi-tenant root directory: host many named stores under it")
		tenantsSpec = flag.String("tenants", "", "bootstrap tenants with -root: NAME[:K[:NODES[:EDGES[:SEED]]]],...")
		maxTenants  = flag.Int("maxtenants", 64, "open-tenant cap with -root; idle tenants are evicted past it")
		idleClose   = flag.Duration("idleclose", 0, "close tenants idle this long with -root (0 = never)")
		tenantQuota = flag.Int("tenantops", 0, "per-tenant queued-op quota with -root; excess updates get 429 (0 = unlimited)")
	)
	flag.Parse()

	if *rootDir != "" {
		if *follow != "" {
			fatal(errors.New("-root and -follow are mutually exclusive (followers replicate one store)"))
		}
		if *dataDir != "" {
			fatal(errors.New("-root and -data are mutually exclusive (tenant stores live under the root)"))
		}
	}

	var policy wal.SyncPolicy
	switch *fsyncMode {
	case "batch":
		policy = wal.SyncEveryBatch
	case "none":
		policy = wal.SyncNone
	default:
		fatal(fmt.Errorf(`-fsync wants "batch" or "none", got %q`, *fsyncMode))
	}
	opts := serve.Options{
		Workers:         *workers,
		QueueCapacity:   *queueCap,
		MaxBatch:        *maxBatch,
		Dir:             *dataDir,
		Fsync:           policy,
		CheckpointEvery: *ckptEvery,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		svc       *serve.Service   // the service replication ships, unless a follower
		follower  *repl.Follower   // follower mode only
		mgr       *manager.Manager // -root mode only
		defHandle *manager.Handle  // -root mode: the pinned default tenant
		front     server           // what both transports serve
		ready     func() error     // the /readyz probe
	)
	switch {
	case *rootDir != "":
		m, err := manager.Open(*rootDir, manager.Options{
			MaxTenants:   *maxTenants,
			IdleClose:    *idleClose,
			MaxQueuedOps: *tenantQuota,
			Service:      opts,
		})
		if err != nil {
			fatal(err)
		}
		mgr = m
		if err := seedDefaultTenant(m, *inputPath, *dsName, *genSpec, *algName, *k, *workers); err != nil {
			fatal(err)
		}
		if err := bootstrapTenants(m, *tenantsSpec); err != nil {
			fatal(err)
		}
		// Pin the default tenant for the process lifetime: the root-level
		// routes and the replication primary must never see it evicted.
		h, err := m.Acquire(manager.DefaultTenant)
		if err != nil {
			fatal(err)
		}
		defHandle, svc = h, h.Service()
		front, ready = h, svc.Err
		snap := h.Snapshot()
		log.Printf("manager: %d tenants under %s (default pinned: n=%d m=%d |S|=%d version=%d)",
			len(m.List()), *rootDir, snap.N(), snap.M(), snap.Size(), snap.Version())
	case *follow != "":
		f, err := repl.NewFollower(repl.FollowerOptions{
			Addr: *follow, Dir: *dataDir, Workers: *workers, Fsync: policy,
			CheckpointEvery: *ckptEvery, LagBound: *readyLag, Logf: log.Printf,
		})
		if err != nil {
			fatal(err)
		}
		go f.Run(ctx)
		log.Printf("follower: replicating from %s", *follow)
		start := time.Now()
		if err := f.WaitInstalled(ctx); err != nil {
			fatal(fmt.Errorf("follower: waiting for first install: %w", err))
		}
		st := f.Status()
		log.Printf("follower: serving at version %d (epoch %d, %d install) after %s",
			st.Version, st.Epoch, st.Installs, time.Since(start).Round(time.Millisecond))
		follower, front, ready = f, f.Front(), f.Ready
	case *dataDir != "" && serve.StoreExists(*dataDir):
		log.Printf("resuming store in %s", *dataDir)
		start := time.Now()
		s, err := serve.Open(*dataDir, opts)
		if err != nil {
			fatal(err)
		}
		svc, front, ready = s, s, s.Err
		snap := svc.Snapshot()
		log.Printf("recovered: n=%d m=%d |S|=%d version=%d (replayed %d ops) in %s",
			snap.N(), snap.M(), snap.Size(), snap.Version(), svc.Stats().Recovered,
			time.Since(start).Round(time.Millisecond))
	default:
		g, err := loadGraph(*inputPath, *dsName, *genSpec)
		if err != nil {
			fatal(err)
		}
		if g == nil {
			fatal(errors.New("need -input FILE, -dataset NAME or -gen NODES,EDGES,SEED"))
		}
		res, err := solve(g, *algName, *k, *workers)
		if err != nil {
			fatal(err)
		}
		s, err := serve.New(g, *k, res.Cliques, opts)
		if err != nil {
			fatal(err)
		}
		svc, front, ready = s, s, s.Err
		if *dataDir != "" {
			log.Printf("durable store initialised in %s (fsync=%s)", *dataDir, *fsyncMode)
		}
	}
	closeBackend := func() error {
		switch {
		case follower != nil:
			return follower.Close()
		case mgr != nil:
			defHandle.Release()
			return mgr.Close()
		}
		return svc.Close()
	}

	// With the frame transport up, a primary also serves replication
	// streams under its fencing epoch. In -root mode the stream covers
	// the default tenant only — its pinned handle guarantees the shipped
	// service outlives the attachment. (A follower never serves streams:
	// cascading replication is not supported, and its frame server
	// carries no replication handler.)
	var prim *repl.Primary
	if *tcpAddr != "" && follower == nil {
		p, err := repl.NewPrimary(ctx, svc, *epoch, repl.PrimaryOptions{})
		if err != nil {
			closeBackend()
			fatal(err)
		}
		prim = p
		log.Printf("replication primary attached (epoch %d)", *epoch)
	}

	// One snapshot-body cache shared across transports: the HTTP handler
	// and the TCP frame server answer a given version from the same
	// pre-encoded bytes. (In -root mode the caches live inside the
	// manager, one per tenant, and both transports resolve them per
	// request — the sharing still holds, tenant by tenant.)
	cache := new(respcache.Snapshot)

	apiOpts := httpapi.Options{MaxOps: *maxOps, MaxBody: *maxBody, Ready: ready}
	var apiHandler http.Handler
	if mgr != nil {
		apiHandler = httpapi.NewMulti(mgr, apiOpts)
	} else {
		apiOpts.Cache = cache
		apiHandler = httpapi.New(front, apiOpts)
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: apiHandler,
		// Bounded timeouts so a slow or hostile peer (slowloris drip-feeds,
		// abandoned connections) cannot pin handler goroutines forever.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}

	errc := make(chan error, 2)
	go func() {
		log.Printf("serving on %s", *addr)
		errc <- srv.ListenAndServe()
	}()
	var fsrv *framesrv.Server
	if *tcpAddr != "" {
		fopt := framesrv.Options{MaxOps: *maxOps}
		if mgr != nil {
			fopt.Tenants = tenantResolver{mgr}
		} else {
			fopt.Cache = cache
		}
		if prim != nil {
			fopt.Repl = prim
		}
		fsrv = framesrv.New(front, fopt)
		ln, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			closeBackend()
			fatal(err)
		}
		go func() {
			log.Printf("serving frames on %s", *tcpAddr)
			errc <- fsrv.Serve(ln)
		}()
	}

	select {
	case err := <-errc:
		closeBackend()
		fatal(err)
	case <-ctx.Done():
		stop() // restore default signal behaviour: a second signal kills
		log.Printf("signal received; draining connections (limit %s)", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Drain both listeners concurrently within the one deadline.
		done := make(chan struct{})
		go func() {
			defer close(done)
			if fsrv == nil {
				return
			}
			if err := fsrv.Shutdown(sctx); err != nil {
				log.Printf("frame listener shutdown: %v", err)
			}
		}()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("listener shutdown: %v", err)
		}
		<-done
		if prim != nil {
			prim.Close()
		}
		// Close drains the update queue into the engine and, with -data,
		// writes the final checkpoint — nothing accepted is lost. (On a
		// follower the stream already stopped with the signal context,
		// and Close checkpoints everything it applied the same way.)
		if err := closeBackend(); err != nil {
			fatal(fmt.Errorf("service close: %w", err))
		}
		log.Printf("shutdown complete")
	}
}

// server is the serving surface both transports need; a primary's
// *serve.Service, the default tenant's *manager.Handle and a follower's
// Front all satisfy it.
type server interface {
	Snapshot() *dynamic.Snapshot
	Stats() serve.Stats
	K() int
	Published() <-chan struct{}
	Enqueue(ctx context.Context, ops ...graph.Op) error
	Flush(ctx context.Context) error
}

func parseGen(spec string) (nodes, edges int, seed int64, err error) {
	parts := strings.Split(spec, ",")
	if len(parts) == 3 {
		var e1, e2, e3 error
		nodes, e1 = strconv.Atoi(parts[0])
		edges, e2 = strconv.Atoi(parts[1])
		seed, e3 = strconv.ParseInt(parts[2], 10, 64)
		if e1 == nil && e2 == nil && e3 == nil {
			return nodes, edges, seed, nil
		}
	}
	return 0, 0, 0, fmt.Errorf("-gen wants NODES,EDGES,SEED, got %q", spec)
}

// loadGraph loads the graph the -input, -dataset or -gen flag names.
// No graph flags at all means (nil, nil): -root mode seeds an empty
// default tenant then, because a manager host is useful with
// runtime-created tenants alone; a single store needs a graph.
func loadGraph(path, ds, genSpec string) (*graph.Graph, error) {
	switch {
	case ds != "":
		return dataset.Load(ds)
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadEdgeList(f)
	case genSpec != "":
		nodes, edges, seed, err := parseGen(genSpec)
		if err != nil {
			return nil, err
		}
		return gen.CommunitySocial(nodes, 10, 0.2, edges, seed), nil
	}
	return nil, nil
}

// seedDefaultTenant makes sure the manager's default tenant exists: on
// a fresh root it is created from the graph flags (solved with the
// selected algorithm) or left empty when none were given; on a resumed
// root the persisted store wins and the graph flags are ignored, same
// as single-tenant -data resumption.
func seedDefaultTenant(m *manager.Manager, path, ds, genSpec, algName string, k, workers int) error {
	for _, info := range m.List() {
		if info.Name == manager.DefaultTenant {
			if path != "" || ds != "" || genSpec != "" {
				log.Printf("tenant %s: resuming persisted store; graph flags ignored", info.Name)
			}
			return nil
		}
	}
	g, err := loadGraph(path, ds, genSpec)
	if err != nil {
		return err
	}
	if g == nil {
		return m.Create(manager.DefaultTenant, manager.TenantConfig{K: k})
	}
	res, err := solve(g, algName, k, workers)
	if err != nil {
		return err
	}
	return m.CreateFromGraph(manager.DefaultTenant, g, k, res.Cliques)
}

// solve computes the initial clique set of g with the static algorithm
// named algName.
func solve(g *graph.Graph, algName string, k, workers int) (*core.Result, error) {
	alg, err := core.ParseAlgorithm(algName)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := core.Find(g, core.Options{K: k, Algorithm: alg, Workers: workers})
	if err != nil {
		return nil, err
	}
	log.Printf("initial solve: n=%d m=%d |S|=%d in %s",
		g.N(), g.M(), res.Size(), time.Since(start).Round(time.Millisecond))
	return res, nil
}

// bootstrapTenants creates the -tenants entries that do not exist yet;
// entries whose stores already live under the root resume untouched, so
// the flag is idempotent across restarts.
func bootstrapTenants(m *manager.Manager, spec string) error {
	if spec == "" {
		return nil
	}
	for _, entry := range strings.Split(spec, ",") {
		parts := strings.Split(entry, ":")
		if len(parts) > 5 || parts[0] == "" {
			return fmt.Errorf("-tenants entry %q: want NAME[:K[:NODES[:EDGES[:SEED]]]]", entry)
		}
		name := parts[0]
		var cfg manager.TenantConfig
		dst := []*int{&cfg.K, &cfg.Nodes, &cfg.Edges}
		for i, p := range parts[1:] {
			n, err := strconv.ParseInt(p, 10, 64)
			if err != nil {
				return fmt.Errorf("-tenants entry %q: bad number %q", entry, p)
			}
			if i < len(dst) {
				*dst[i] = int(n)
			} else {
				cfg.Seed = n
			}
		}
		switch err := m.Create(name, cfg); {
		case errors.Is(err, manager.ErrTenantExists):
			log.Printf("tenant %s: resuming persisted store", name)
		case err != nil:
			return err
		default:
			log.Printf("tenant %s: created (k=%d nodes=%d edges=%d)", name, max(cfg.K, 3), max(cfg.Nodes, 256), cfg.Edges)
		}
	}
	return nil
}

// tenantResolver adapts the store manager to the frame server's tenant
// hook, carrying the manager's status mapping onto the error frames.
type tenantResolver struct{ mgr *manager.Manager }

func (r tenantResolver) AcquireTenant(name string) (framesrv.TenantHandle, error) {
	h, err := r.mgr.Acquire(name)
	if err != nil {
		return nil, &framesrv.StatusError{Code: manager.HTTPStatus(err), Err: err}
	}
	return h, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dkserver:", err)
	os.Exit(1)
}
