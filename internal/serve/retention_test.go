package serve_test

import (
	"bytes"
	"context"
	"net"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/framesrv"
	"repro/internal/graph"
	"repro/internal/respcache"
	"repro/internal/serve"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

// liveHeap returns the bytes of heap objects that survive a full GC.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestStackRetention checks the MVCC retention bound past the engine: a
// durable service with a TCP subscribe stream and a response-body cache
// hit at every version must not accumulate superseded clique sets. The
// subscriber's last snapshot and the cached bodies pin one version each;
// a snapshot held by a reader pins its own generation and stays intact.
//
// The graph is disjoint 4-cliques, and every batch deletes or re-inserts
// an edge of one of them, so every publish changes S (the clique
// dissolves, then returns under a new id) and builds a fresh generation
// of |S| ids and slice headers. The live heap is sampled along the
// stream after a warm-up that includes checkpoint captures, so the
// service's fixed buffers are in the baseline.
func TestStackRetention(t *testing.T) {
	const (
		cliques = 4000 // one generation's arrays: 4000 x 28 B = 112 KB
		warm    = 512  // batches before the baseline
		batches = 1536 // measured batches, each one S-changing publish
		every   = 128  // batches between live-heap samples
		slack   = 4    // allowed growth, in generations per live one
		live    = 2    // the engine's generation and the held one
	)
	gen := int64(cliques) * 28

	var edges [][2]int32
	S := make([][]int32, cliques)
	for i := range S {
		b := int32(4 * i)
		S[i] = []int32{b, b + 1, b + 2, b + 3}
		for u := b; u < b+4; u++ {
			for v := u + 1; v < b+4; v++ {
				edges = append(edges, [2]int32{u, v})
			}
		}
	}
	g, err := graph.FromEdges(4*cliques, edges)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := serve.New(g, 4, S, serve.Options{
		Dir: t.TempDir(), Fsync: wal.SyncNone, CheckpointEvery: 200, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	cache := new(respcache.Snapshot)
	srv := framesrv.New(svc, framesrv.Options{Cache: cache})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-served
	}()

	dial := func() *wire.Client {
		c, err := wire.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.SetIOTimeout(10 * time.Second)
		t.Cleanup(func() { c.Close() })
		return c
	}
	sub, fetch := dial(), dial()
	if err := sub.Subscribe(); err != nil {
		t.Fatal(err)
	}
	var rep wire.Replica

	ctx := context.Background()
	step := func(i int) {
		u := int32(4 * (i / 2 % cliques))
		if err := svc.Enqueue(ctx, workload.Op{Insert: i%2 == 1, U: u, V: u + 1}); err != nil {
			t.Fatal(err)
		}
		if err := svc.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		s := svc.Snapshot()
		if s.SChanged() != s.Version() {
			t.Fatalf("batch %d left S unchanged (version %d, S changed at %d)", i, s.Version(), s.SChanged())
		}
		// The full binary body of every version, built in the shared cache.
		if _, err := fetch.Snapshot(true); err != nil {
			t.Fatal(err)
		}
		for rep.Version() < s.Version() {
			f, err := sub.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Apply(f); err != nil {
				t.Fatal(err)
			}
		}
	}

	for i := 0; i < warm; i++ {
		step(i)
	}
	if svc.Stats().Checkpoints < 2 {
		t.Fatalf("warm-up captured %d checkpoints, want a capture before the baseline", svc.Stats().Checkpoints)
	}
	held := svc.Snapshot()
	var want [][]int32
	for _, c := range held.Cliques() {
		want = append(want, slices.Clone(c))
	}
	before := liveHeap()
	var peak int64
	for i := warm; i < warm+batches; i++ {
		step(i)
		if (i-warm+1)%every == 0 {
			peak = max(peak, liveHeap()-before)
		}
	}

	t.Logf("peak live-heap growth %d B over %d S-changing batches (one generation: %d B)", peak, batches, gen)
	if limit := slack * live * gen; peak > limit {
		t.Fatalf("live heap grew %d B (%.1f generations), want at most %d B (%d x %d live)",
			peak, float64(peak)/float64(gen), limit, slack, live)
	}
	if err := held.Validate(); err != nil {
		t.Fatalf("held snapshot: %v", err)
	}
	if !slices.EqualFunc(held.Cliques(), want, slices.Equal[[]int32]) {
		t.Fatal("held snapshot's cliques changed under later batches")
	}
	if got, want := rep.SnapshotFrame(nil), cache.Binary(svc.Snapshot(), false); !bytes.Equal(got, want) {
		t.Fatalf("subscriber's replica differs from the cached body (%d vs %d bytes)", len(got), len(want))
	}
}
