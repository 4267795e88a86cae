package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/framesrv"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/manager"
	"repro/internal/repl"
	"repro/internal/serve"
	"repro/internal/workload"
)

// replayInput is what the layer replay feeds through each layer's public
// functions: the graph the solve layers run on, and the graph, initial
// set, write batches and lookup nodes the maintenance and serving layers
// run on. Ingest and mixed pass what they recorded; static passes inputs
// generated from its seed at the serving shape.
type replayInput struct {
	solve   *graph.Graph
	serving *graph.Graph
	initial [][]int32
	batches [][]workload.Op
	lookups []int32
}

// servingGraph is the shape ingest and mixed run on: the OR stand-in,
// ~384k edges over 40k nodes.
func servingGraph(seed int64) *graph.Graph {
	return gen.CommunitySocial(40000, 10, 0.25, 200000, seed)
}

// solveLP computes the LP initial set the way dkserver does on boot.
func solveLP(g *graph.Graph, workers int) ([][]int32, error) {
	res, err := core.Find(g, core.Options{K: k, Algorithm: core.LP, Workers: workers})
	if err != nil {
		return nil, err
	}
	return res.Cliques, nil
}

// writeOps is the write-only toggling stream of workload.ReadWriteClients:
// every op deletes an edge of the graph or re-inserts one it deleted.
func writeOps(g *graph.Graph, n int, seed int64) []workload.Op {
	stream := workload.ReadWriteClients(g, 1, n, 0, seed)[0]
	ops := make([]workload.Op, len(stream))
	for i, op := range stream {
		ops[i] = op.Update
	}
	return ops
}

// chunk splits ops into batches of size ops each.
func chunk(ops []workload.Op, size int) [][]workload.Op {
	var out [][]workload.Op
	for len(ops) > 0 {
		n := min(size, len(ops))
		out = append(out, ops[:n:n])
		ops = ops[n:]
	}
	return out
}

// servingInput generates replay inputs at the serving shape for a
// workload that records none: 64 batches of 256 ops and 2,000 lookups.
func servingInput(seed int64, workers int) (*replayInput, error) {
	g := servingGraph(seed)
	initial, err := solveLP(g, workers)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 3))
	lookups := make([]int32, 2000)
	for i := range lookups {
		lookups[i] = int32(rng.Intn(g.N()))
	}
	return &replayInput{
		solve: g, serving: g, initial: initial,
		batches: chunk(writeOps(g, 64*256, seed+2), 256),
		lookups: lookups,
	}, nil
}

// stack is the multi-tenant serving stack dkserver mounts with
// `-root DIR -tcp ADDR`: a store manager holding the default tenant
// (pinned), a replication primary on it, the multi-tenant HTTP API, and
// the frame server resolving tenants through the manager, both on
// loopback listeners.
type stack struct {
	mgr       *manager.Manager
	h         *manager.Handle
	prim      *repl.Primary
	fsrv      *framesrv.Server
	hsrv      *http.Server
	api       http.Handler
	frameAddr string
	httpAddr  string
	root      string
	served    chan error // one result per listener, when it stops
}

// mountStack boots the stack over g with the initial set under root.
func mountStack(ctx context.Context, root string, g *graph.Graph, initial [][]int32, opt serve.Options) (*stack, error) {
	s := &stack{root: root, served: make(chan error, 2)}
	m, err := manager.Open(root, manager.Options{Service: opt})
	if err != nil {
		return nil, err
	}
	s.mgr = m
	if err := m.CreateFromGraph(manager.DefaultTenant, g, k, initial); err != nil {
		m.Close()
		return nil, err
	}
	if s.h, err = m.Acquire(manager.DefaultTenant); err != nil {
		m.Close()
		return nil, err
	}
	if s.prim, err = repl.NewPrimary(ctx, s.h.Service(), 1, repl.PrimaryOptions{}); err != nil {
		s.h.Release()
		m.Close()
		return nil, err
	}
	s.api = httpapi.NewMulti(m, httpapi.Options{Ready: s.h.Service().Err})
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.closeBackend()
		return nil, err
	}
	fl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hl.Close()
		s.closeBackend()
		return nil, err
	}
	s.httpAddr, s.frameAddr = hl.Addr().String(), fl.Addr().String()
	s.hsrv = &http.Server{Handler: s.api, ReadHeaderTimeout: 5 * time.Second}
	s.fsrv = framesrv.New(s.h, framesrv.Options{Tenants: tenantResolver{m}, Repl: s.prim})
	go func() { s.served <- s.hsrv.Serve(hl) }()
	go func() { s.served <- s.fsrv.Serve(fl) }()
	return s, nil
}

// close drains both listeners, detaches the primary and closes the
// manager (which checkpoints the tenant), then removes the store.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := []error{s.fsrv.Shutdown(ctx), s.hsrv.Shutdown(ctx)}
	for range 2 {
		if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) && !errors.Is(err, framesrv.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	errs = append(errs, s.closeBackend(), os.RemoveAll(s.root))
	return errors.Join(errs...)
}

func (s *stack) closeBackend() error {
	if s.prim != nil {
		s.prim.Close()
	}
	s.h.Release()
	return s.mgr.Close()
}

// tenantResolver adapts the manager to the frame server's tenant hook, as
// dkserver does.
type tenantResolver struct{ mgr *manager.Manager }

func (r tenantResolver) AcquireTenant(name string) (framesrv.TenantHandle, error) {
	h, err := r.mgr.Acquire(name)
	if err != nil {
		return nil, &framesrv.StatusError{Code: manager.HTTPStatus(err), Err: err}
	}
	return h, nil
}

// followerCatchUp starts a fresh in-memory follower of the primary at
// addr and waits until it has applied version want. It returns the time
// to the first install and the total time, and leaves the follower
// running for the caller to inspect and stop.
func followerCatchUp(ctx context.Context, addr string, want uint64, workers int) (*repl.Follower, func(), time.Duration, time.Duration, error) {
	t := time.Now()
	f, err := repl.NewFollower(repl.FollowerOptions{Addr: addr, Workers: workers})
	if err != nil {
		return nil, nil, 0, 0, err
	}
	rctx, cancel := context.WithCancel(ctx)
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		f.Run(rctx)
	}()
	stop := func() {
		cancel()
		<-ran
		f.Close()
	}
	wctx, wcancel := context.WithTimeout(ctx, 60*time.Second)
	defer wcancel()
	if err := f.WaitInstalled(wctx); err != nil {
		stop()
		return nil, nil, 0, 0, fmt.Errorf("follower install: %w", err)
	}
	install := time.Since(t)
	for f.Status().Version < want {
		if wctx.Err() != nil {
			stop()
			return nil, nil, 0, 0, fmt.Errorf("follower stuck at version %d of %d", f.Status().Version, want)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return f, stop, install, time.Since(t), nil
}
