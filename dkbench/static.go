package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// runStatic is the paper's headline problem (§IV): an LP solve of a
// social graph of ~1.5M edges. Set-up generates the graph; the measured
// phase runs core.Find back to back, one request per call.
func runStatic(ctx context.Context, b *bench) (*replayInput, error) {
	build := func() (*graph.Graph, error) {
		return gen.CommunitySocial(200000, 12, 0.20, 400000, b.seed), nil
	}
	g, setup, err := repeatSetup(setupRepeats, build, func(*graph.Graph) {})
	if err != nil {
		return nil, err
	}
	b.setE2E("setup_s", "s", setup)
	fmt.Printf("static: n=%d m=%d\n", g.N(), g.M())

	// One Find takes about a second on a 2-vCPU host. The phase makes three
	// calls per two nominal seconds, and at least five: this host's speed
	// drifts over tens of seconds, and a longer phase averages more of it.
	// A traced run splits the calls between its untraced and traced passes.
	calls := max(5, b.seconds*3/2)
	if b.traced {
		calls = max(3, calls/2)
	}
	opt := core.Options{K: k, Algorithm: core.LP, Workers: b.workers}
	var res *core.Result
	solve := func(n int, tr *tracer) (*latencies, time.Duration) {
		lat := &latencies{}
		cpu0 := cpuTime()
		for i := range n {
			id := tr.begin("core.Find", 0, int64(i))
			t := time.Now()
			r, err := core.Find(g, opt)
			d := time.Since(t)
			tr.end(id)
			if err != nil {
				lat.fail()
				continue
			}
			lat.add(d.Seconds())
			if res != nil {
				b.check(r.Size() == res.Size(), "Find %d returned |S|=%d, an earlier call %d", i, r.Size(), res.Size())
			}
			res = r
		}
		return lat, cpuTime() - cpu0
	}

	lat, cpu := solve(calls, nil)
	b.count(lat.attempted(), lat.failed)
	if res == nil {
		return nil, fmt.Errorf("every Find failed")
	}
	b.setE2E("cpu_us_per_req", "us", us(cpu.Seconds())/float64(len(lat.ok)))
	b.setE2E("cliques", "count", float64(res.Size()))
	b.setE2E("heap_mb", "MB", liveHeapMB())
	runtime.KeepAlive(g)
	b.setDiag("static.kcliques", "count", float64(res.TotalKCliques))

	b.check(core.Verify(g, k, res.Cliques) == nil, "core.Verify rejected the LP result: %v", core.Verify(g, k, res.Cliques))
	b.check(core.IsMaximal(g, k, res.Cliques), "the LP result is not maximal")

	if b.traced {
		tr := newTracer(b.origin)
		tlat, _ := solve(calls, tr)
		b.count(tlat.attempted(), tlat.failed)
		b.spans = append(b.spans, tr.spans...)
		b.traceOverhead(lat, tlat)
	}
	b.reportLatency(lat)

	in, err := servingInput(b.seed, b.workers)
	if err != nil {
		return nil, err
	}
	in.solve = g
	return in, nil
}
