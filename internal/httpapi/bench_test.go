package httpapi

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/workload"
)

// End-to-end wire-path benchmarks: closed-loop HTTP clients against a
// real TCP server (httptest), measuring the full request cost — routing,
// encode (or cache hit), syscalls, transfer, drain. The graph matches
// the in-process serving benchmarks (internal/serve), so the HTTP rows
// compose with BENCH_serve.json: same snapshot, one transport layer
// deeper. Recorded in BENCH_wire.json.

var bench struct {
	once    sync.Once
	g       *graph.Graph
	svc     *serve.Service
	cached  *httptest.Server
	httpc   *http.Client
	fullLen int // full JSON snapshot body bytes, for SetBytes
}

func benchSetup(b *testing.B) {
	bench.once.Do(func() {
		g := gen.CommunitySocial(20000, 10, 0.2, 40000, 17)
		res, err := core.Find(g, core.Options{K: 3, Algorithm: core.LP})
		if err != nil {
			b.Fatal(err)
		}
		svc, err := serve.New(g, 3, res.Cliques, serve.Options{})
		if err != nil {
			b.Fatal(err)
		}
		bench.g = g
		bench.svc = svc
		bench.cached = httptest.NewServer(New(svc, Options{}))
		// One shared transport with a deep idle pool, so every parallel
		// client keeps its keep-alive connection instead of redialling.
		bench.httpc = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        512,
			MaxIdleConnsPerHost: 512,
		}}
		c := &workload.HTTPClient{Base: bench.cached.URL, Client: bench.httpc}
		n, err := c.Snapshot(true)
		if err != nil {
			b.Fatal(err)
		}
		bench.fullLen = n
	})
}

// BenchmarkHTTPSnapshot is the headline read-dominated row: the full
// result-set read from the version-keyed cache (one atomic load), JSON
// vs binary. ns/op is the closed-loop per-request latency under
// GOMAXPROCS parallel clients; QPS = 1e9/ns_per_op.
func BenchmarkHTTPSnapshot(b *testing.B) {
	benchSetup(b)
	rows := []struct {
		name   string
		binary bool
	}{
		{"json-cached", false},
		{"binary-cached", true},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			b.SetBytes(int64(bench.fullLen))
			b.RunParallel(func(pb *testing.PB) {
				c := &workload.HTTPClient{Base: bench.cached.URL, Client: bench.httpc, Binary: row.binary}
				for pb.Next() {
					if _, err := c.Snapshot(true); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkHTTPCliqueOf measures the uncached point lookup, JSON vs
// binary frame — the per-request encode cost with a tiny body, where
// the pooled encoders and buffers carry the row.
func BenchmarkHTTPCliqueOf(b *testing.B) {
	benchSetup(b)
	n := bench.g.N()
	var seq atomic.Int64
	for _, binary := range []bool{false, true} {
		b.Run(fmt.Sprintf("binary=%v", binary), func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				c := &workload.HTTPClient{Base: bench.cached.URL, Client: bench.httpc, Binary: binary}
				rng := rand.New(rand.NewSource(seq.Add(1)))
				for pb.Next() {
					if _, err := c.CliqueOf(int32(rng.Intn(n))); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkHTTPCliques measures the batched lookup: 16 point reads
// resolved against one snapshot in one round trip. Compare against 16×
// the BenchmarkHTTPCliqueOf row for the batching win.
func BenchmarkHTTPCliques(b *testing.B) {
	benchSetup(b)
	n := bench.g.N()
	const batch = 16
	var seq atomic.Int64
	for _, binary := range []bool{false, true} {
		b.Run(fmt.Sprintf("batch=%d/binary=%v", batch, binary), func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				c := &workload.HTTPClient{Base: bench.cached.URL, Client: bench.httpc, Binary: binary}
				rng := rand.New(rand.NewSource(seq.Add(1)))
				nodes := make([]int32, batch)
				for pb.Next() {
					for i := range nodes {
						nodes[i] = int32(rng.Intn(n))
					}
					if _, err := c.Cliques(nodes); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkHTTPServeMixed replays read-dominated closed-loop client
// streams over HTTP — the end-to-end analogue of the in-process
// BenchmarkServeMixed: 16 clients, point reads interleaved with batched
// edge updates, ns/op per client operation.
func BenchmarkHTTPServeMixed(b *testing.B) {
	benchSetup(b)
	const clients = 16
	for _, readPct := range []int{90, 99} {
		b.Run(fmt.Sprintf("reads=%d%%", readPct), func(b *testing.B) {
			per := b.N/clients + 1
			streams := workload.ReadWriteClients(bench.g, clients, per, float64(readPct)/100, 17)
			b.ResetTimer()
			var wg sync.WaitGroup
			for _, stream := range streams {
				wg.Add(1)
				go func(ops []workload.ClientOp) {
					defer wg.Done()
					c := &workload.HTTPClient{Base: bench.cached.URL, Client: bench.httpc, Binary: true}
					if _, err := c.Replay(ops, 32); err != nil {
						b.Error(err)
					}
				}(stream)
			}
			wg.Wait()
		})
	}
}
