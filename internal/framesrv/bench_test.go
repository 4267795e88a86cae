package framesrv

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/wire"
)

// End-to-end raw-TCP benchmarks: wire.Client goroutines against a real
// frame server over loopback, on the same graph as the HTTP rows of
// internal/httpapi — so BENCH_tcp.json composes directly with
// BENCH_wire.json: same snapshot, same cached bodies, the HTTP machinery
// replaced by the pipelined frame loop. The pipelined rows keep `depth`
// requests in flight per connection (one flush, one drain per batch);
// the closed-loop rows are the apples-to-apples comparison against the
// one-request-per-round-trip HTTP client.

var bench struct {
	once    sync.Once
	g       *graph.Graph
	svc     *serve.Service
	addr    string
	fullLen int // full binary snapshot frame bytes, for SetBytes
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
		srv := New(svc, Options{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve(ln)
		bench.g = g
		bench.svc = svc
		bench.addr = ln.Addr().String()
		c, err := wire.Dial(bench.addr)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		if bench.fullLen, err = c.Snapshot(true); err != nil {
			b.Fatal(err)
		}
	})
}

// pipelined drives one client with up to depth requests in flight:
// send() buffers one request, and the batch is flushed and drained
// whenever it fills (and once more at the end).
func pipelined(b *testing.B, pb *testing.PB, depth int, send func(c *wire.Client)) {
	c, err := wire.Dial(bench.addr)
	if err != nil {
		b.Error(err)
		return
	}
	defer c.Close()
	drain := func() bool {
		if err := c.Flush(); err != nil {
			b.Error(err)
			return false
		}
		for c.Pending() > 0 {
			if _, _, err := c.RecvRaw(); err != nil {
				b.Error(err)
				return false
			}
		}
		return true
	}
	for pb.Next() {
		send(c)
		if c.Pending() == depth && !drain() {
			return
		}
	}
	drain()
}

// BenchmarkTCPSnapshot is the headline row against
// BenchmarkHTTPSnapshot/binary-cached: the same version-cached binary
// snapshot body, served through the frame loop instead of net/http.
func BenchmarkTCPSnapshot(b *testing.B) {
	benchSetup(b)
	// Depth 8 for the full body: ~72KB per response means a deeper
	// pipeline just parks megabytes in socket buffers and stalls on
	// backpressure (depth 32 measures ~2x slower than depth 8).
	rows := []struct {
		name  string
		depth int
		full  bool
	}{
		{"full-pipelined", 8, true},
		{"full-closedloop", 1, true},
		{"lean-pipelined", 32, false},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			if row.full {
				b.SetBytes(int64(bench.fullLen))
			}
			b.RunParallel(func(pb *testing.PB) {
				pipelined(b, pb, row.depth, func(c *wire.Client) {
					c.SendSnapshot(row.full)
				})
			})
		})
	}
}

// BenchmarkTCPCliqueOf is the point-lookup row against
// BenchmarkHTTPCliqueOf/binary=true: an uncached per-request encode
// with a tiny body, where pipelining amortizes the round trip away.
func BenchmarkTCPCliqueOf(b *testing.B) {
	benchSetup(b)
	n := bench.g.N()
	var seq atomic.Int64
	for _, depth := range []int{32, 1} {
		name := "pipelined"
		if depth == 1 {
			name = "closedloop"
		}
		b.Run(name, func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seq.Add(1)))
				pipelined(b, pb, depth, func(c *wire.Client) {
					c.SendCliqueOf(int32(rng.Intn(n)))
				})
			})
		})
	}
}

// BenchmarkTCPCliques is the batched-lookup row against
// BenchmarkHTTPCliques/batch=16/binary=true.
func BenchmarkTCPCliques(b *testing.B) {
	benchSetup(b)
	n := bench.g.N()
	const batch = 16
	var seq atomic.Int64
	b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			rng := rand.New(rand.NewSource(seq.Add(1)))
			nodes := make([]int32, batch)
			pipelined(b, pb, 8, func(c *wire.Client) {
				for i := range nodes {
					nodes[i] = int32(rng.Intn(n))
				}
				c.SendCliques(nodes)
			})
		})
	})
}

// BenchmarkTCPStats measures the counters frame, pipelined.
func BenchmarkTCPStats(b *testing.B) {
	benchSetup(b)
	b.RunParallel(func(pb *testing.PB) {
		pipelined(b, pb, 32, func(c *wire.Client) {
			c.SendStats()
		})
	})
}
