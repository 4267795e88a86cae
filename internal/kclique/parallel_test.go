package kclique

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// randomDAG builds a moderately dense random graph and orients it for
// enumeration.
func randomDAG(t testing.TB, n, m int, seed int64) *graph.DAG {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return graph.Orient(g, graph.ListingOrdering(g))
}

// cliqueSet canonicalises a clique list into sorted strings for comparison.
func cliqueSet(cliques [][]int32) []string {
	out := make([]string, len(cliques))
	for i, c := range cliques {
		cc := append([]int32(nil), c...)
		slices.Sort(cc)
		s := make([]byte, 0, len(cc)*4)
		for _, v := range cc {
			s = append(s, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		}
		out[i] = string(s)
	}
	slices.Sort(out)
	return out
}

// TestParallelForEachMatchesSerial checks that the pool visits exactly the
// cliques ForEach does, for several worker counts (including oversubscribed
// pools), exercising the shared-counter partitioning under -race.
func TestParallelForEachMatchesSerial(t *testing.T) {
	d := randomDAG(t, 300, 2500, 1)
	for _, k := range []int{3, 4, 5} {
		var want [][]int32
		ForEach(d, k, func(c []int32) bool {
			want = append(want, append([]int32(nil), c...))
			return true
		})
		wantSet := cliqueSet(want)
		for _, workers := range []int{1, 2, 3, runtime.GOMAXPROCS(0), 64} {
			var mu sync.Mutex
			var got [][]int32
			ParallelForEach(d, k, workers, func(_ int, c []int32) bool {
				cc := append([]int32(nil), c...)
				mu.Lock()
				got = append(got, cc)
				mu.Unlock()
				return true
			})
			if gotSet := cliqueSet(got); !reflect.DeepEqual(gotSet, wantSet) {
				t.Fatalf("k=%d workers=%d: %d cliques, serial found %d",
					k, workers, len(gotSet), len(wantSet))
			}
		}
	}
}

// TestParallelForEachAbort checks that fn returning false stops the whole
// pool and is reported.
func TestParallelForEachAbort(t *testing.T) {
	d := randomDAG(t, 200, 1500, 2)
	var seen atomic.Int64
	completed := ParallelForEach(d, 3, 4, func(_ int, c []int32) bool {
		return seen.Add(1) < 10
	})
	if completed {
		t.Fatal("expected aborted enumeration to report completion=false")
	}
	total, _ := ParallelCountPerNode(d, 3, 0)
	if total < 10 {
		t.Skip("graph too sparse for the abort to trigger")
	}
}

// TestParallelCountPerNodeMatchesSerial checks totals and every per-node
// score against the serial reference for several worker counts.
func TestParallelCountPerNodeMatchesSerial(t *testing.T) {
	d := randomDAG(t, 250, 2000, 3)
	for _, k := range []int{3, 4, 5} {
		wantTotal, wantScores := CountSerial(d, k)
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0), 32} {
			gotTotal, gotScores := ParallelCountPerNode(d, k, workers)
			if gotTotal != wantTotal {
				t.Fatalf("k=%d workers=%d: total %d, want %d", k, workers, gotTotal, wantTotal)
			}
			if !reflect.DeepEqual(gotScores, wantScores) {
				t.Fatalf("k=%d workers=%d: per-node scores diverge from serial", k, workers)
			}
		}
	}
}

// TestParallelRootsVisitsEachRootOnce checks the work partitioning: every
// eligible root is visited exactly once regardless of pool size.
func TestParallelRootsVisitsEachRootOnce(t *testing.T) {
	d := randomDAG(t, 400, 3000, 4)
	k := 3
	for _, workers := range []int{1, 5, 16} {
		visits := make([]int32, d.N())
		ParallelRoots(d, k, workers, time.Time{}, func(_ int, u int32, sc *Scratch) bool {
			atomic.AddInt32(&visits[u], 1)
			if sc == nil {
				t.Error("nil scratch")
			}
			return true
		})
		for u := int32(0); int(u) < d.N(); u++ {
			want := int32(0)
			if d.OutDegree(u) >= k-1 {
				want = 1
			}
			if visits[u] != want {
				t.Fatalf("workers=%d: root %d visited %d times, want %d", workers, u, visits[u], want)
			}
		}
	}
}

func TestWorkersNormalisation(t *testing.T) {
	if got := Workers(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0, 100) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(8, 3); got != 3 {
		t.Fatalf("Workers(8, 3) = %d, want 3", got)
	}
	if got := Workers(-1, 0); got != 1 {
		t.Fatalf("Workers(-1, 0) = %d, want 1", got)
	}
}
