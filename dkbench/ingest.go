package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"repro/internal/dynamic"
	"repro/internal/framesrv"
	"repro/internal/graph"
	"repro/internal/repl"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

// ingestBatch is the bulk loader's batch size, and ingestRate the nominal
// ops per second that sizes the stream from --seconds. The stream is
// bounded by its op count, never by a duration, so every run of a seed
// applies the same batches and checkpoints at the same points.
const (
	ingestBatch = 256
	ingestRate  = 60000
)

// durableNode is what `dkserver -data DIR -fsync batch -tcp ADDR` mounts:
// a durable service on the pipelined write path, a replication primary
// attached to it, and the frame server carrying replication on loopback.
type durableNode struct {
	svc    *serve.Service
	prim   *repl.Primary
	fsrv   *framesrv.Server
	addr   string
	dir    string
	served chan error
}

// ingestOptions is dkserver's store configuration: fsync per batch and the
// default checkpoint interval.
func ingestOptions(workers int) serve.Options {
	return serve.Options{Workers: workers, Fsync: wal.SyncEveryBatch}
}

func mountDurable(ctx context.Context, dir string, g *graph.Graph, initial [][]int32, workers int) (*durableNode, error) {
	opt := ingestOptions(workers)
	opt.Dir = dir
	svc, err := serve.New(g, k, initial, opt)
	if err != nil {
		return nil, err
	}
	prim, err := repl.NewPrimary(ctx, svc, 1, repl.PrimaryOptions{})
	if err != nil {
		svc.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		prim.Close()
		svc.Close()
		return nil, err
	}
	n := &durableNode{svc: svc, prim: prim, dir: dir, addr: ln.Addr().String(), served: make(chan error, 1)}
	n.fsrv = framesrv.New(svc, framesrv.Options{Repl: prim})
	go func() { n.served <- n.fsrv.Serve(ln) }()
	return n, nil
}

// stopServing shuts the listener and detaches the primary, leaving the
// service running.
func (n *durableNode) stopServing() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.fsrv.Shutdown(ctx)
	if serr := <-n.served; serr != nil && !errors.Is(serr, framesrv.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	n.prim.Close()
	return err
}

// runIngest is §V maintenance at full speed plus the two ways a store
// comes online. One closed-loop writer, a bulk loader, Enqueues a batch of
// 256 toggling ops and Flushes it; a request is one acked batch. After the
// load, fresh followers catch up over loopback, then the store is crashed
// and reopened repeatedly, each time replaying the same WAL suffix.
func runIngest(ctx context.Context, b *bench) (*replayInput, error) {
	g := servingGraph(b.seed)
	batches := chunk(writeOps(g, b.seconds*ingestRate/ingestBatch*ingestBatch, b.seed+1), ingestBatch)

	var initial [][]int32
	setupN := 0
	build := func() (*durableNode, error) {
		g := servingGraph(b.seed)
		init, err := solveLP(g, b.workers)
		if err != nil {
			return nil, err
		}
		initial = init
		setupN++
		return mountDurable(ctx, filepath.Join(b.dir, fmt.Sprintf("store%d", setupN)), g, init, b.workers)
	}
	drop := func(n *durableNode) {
		n.stopServing()
		n.svc.Close()
		os.RemoveAll(n.dir)
	}
	node, setup, err := repeatSetup(setupRepeats, build, drop)
	if err != nil {
		return nil, err
	}
	b.setE2E("setup_s", "s", setup)

	load := func(part [][]workload.Op, first int, tr *tracer) (*latencies, time.Duration, time.Duration) {
		lat := &latencies{}
		cpu0, t0 := cpuTime(), time.Now()
		for i, batch := range part {
			req := int64(first + i)
			root := tr.begin("ingest.batch", 0, req)
			t := time.Now()
			id := tr.begin("serve.Enqueue", root, req)
			err := node.svc.Enqueue(ctx, batch...)
			tr.end(id)
			if err == nil {
				id = tr.begin("serve.Flush", root, req)
				err = node.svc.Flush(ctx)
				tr.end(id)
			}
			d := time.Since(t)
			tr.end(root)
			if err != nil {
				lat.fail()
				continue
			}
			lat.add(d.Seconds())
		}
		return lat, time.Since(t0), cpuTime() - cpu0
	}
	untraced := batches
	if b.traced {
		untraced = batches[:len(batches)/2]
	}
	lat, wall, cpu := load(untraced, 0, nil)
	b.count(lat.attempted(), lat.failed)
	acked := len(lat.ok) * ingestBatch
	b.setE2E("cpu_us_per_req", "us", us(cpu.Seconds())/float64(max(len(lat.ok), 1)))
	b.setDiag("ingest.update_ops_s", "ops/s", float64(acked)/wall.Seconds())
	b.reportLatency(lat)
	if b.traced {
		tr := newTracer(b.origin)
		tlat, _, _ := load(batches[len(untraced):], len(untraced), tr)
		b.count(tlat.attempted(), tlat.failed)
		b.spans = append(b.spans, tr.spans...)
		b.traceOverhead(lat, tlat)
	}

	snap := node.svc.Snapshot()
	b.setE2E("cliques", "count", float64(snap.Size()))
	b.setE2E("heap_mb", "MB", liveHeapMB())
	b.check(snap.Validate() == nil, "primary snapshot invalid after the load: %v", snap.Validate())
	st := node.svc.Stats()
	b.setDiag("ingest.checkpoints", "count", float64(st.Checkpoints))
	b.setDiag("ingest.ckpt_stall_ms", "ms", float64(st.CheckpointStallNs)/1e6/float64(max(st.Checkpoints, 1)))
	want := frameOf(snap)
	version := snap.Version()

	if err := b.bringUp(ctx, node, want, version); err != nil {
		return nil, err
	}
	return &replayInput{solve: g, serving: g, initial: initial, batches: batches, lookups: nil}, nil
}

// frameOf is a snapshot's full binary frame, the body both transports
// serve for its version.
func frameOf(s *dynamic.Snapshot) []byte {
	return wire.AppendSnapshotFrame(nil, s.Version(), s.K(), s.N(), s.M(), s.Size(), s.Cliques(), true)
}

// bringUp times the two ways the loaded store comes online: three fresh
// followers catching up from the primary, then three crash-and-reopen
// cycles of the store. Each copy must serve a snapshot frame
// byte-identical to the primary's before the crash.
func (b *bench) bringUp(ctx context.Context, node *durableNode, want []byte, version uint64) error {
	var tr *tracer
	if b.traced {
		tr = newTracer(b.origin)
		defer func() { b.spans = append(b.spans, tr.spans...) }()
	}
	var catchup []float64
	for i := range 3 {
		root := tr.begin("repl.catchup", 0, int64(i))
		f, stop, install, total, err := followerCatchUp(ctx, node.addr, version, b.workers)
		tr.end(root)
		b.count(1, 0)
		if err != nil {
			b.count(0, 1)
			b.check(false, "follower %d: %v", i, err)
			continue
		}
		if tr != nil {
			s := tr.spans[root-1]
			tr.add("repl.install", root, int64(i), s.Start, s.Start+install)
		}
		fs := f.Service().Snapshot()
		b.check(fs.Validate() == nil, "follower %d snapshot invalid: %v", i, fs.Validate())
		b.check(bytes.Equal(frameOf(fs), want), "follower %d snapshot frame differs from the primary's", i)
		stop()
		catchup = append(catchup, total.Seconds())
	}
	b.setDiag("ingest.catchup_s", "s", median(catchup))

	if err := node.stopServing(); err != nil {
		return err
	}
	node.svc.Crash()
	var reopen []float64
	var replayed uint64
	for i := range 3 {
		id := tr.begin("serve.Open", 0, int64(i))
		t := time.Now()
		s, err := serve.Open(node.dir, ingestOptions(b.workers))
		d := time.Since(t)
		tr.end(id)
		b.count(1, 0)
		if err != nil {
			b.count(0, 1)
			b.check(false, "recovery %d: %v", i, err)
			continue
		}
		reopen = append(reopen, d.Seconds())
		rs := s.Snapshot()
		b.check(rs.Validate() == nil, "recovered snapshot %d invalid: %v", i, rs.Validate())
		b.check(bytes.Equal(frameOf(rs), want), "recovered snapshot frame %d differs from the primary's", i)
		n := s.Stats().Recovered
		b.check(i == 0 || n == replayed, "recovery %d replayed %d ops, the first %d", i, n, replayed)
		replayed = n
		s.Crash()
	}
	b.setDiag("ingest.recover_s", "s", median(reopen))
	b.setDiag("ingest.recover_ops", "count", float64(replayed))
	return os.RemoveAll(node.dir)
}
