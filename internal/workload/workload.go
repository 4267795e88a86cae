// Package workload builds the update streams of the paper's §VI-E dynamic
// evaluation — a batch of uniformly sampled edge deletions, the matching
// re-insertions, and a mixed stream that removes a batch up front and then
// interleaves its re-insertion with deletions of other random edges — plus
// the closed-loop read/write client streams the serving-layer throughput
// benchmarks replay against a Service.
package workload

import (
	"math/rand"

	"repro/internal/graph"
)

// Op is a single graph update; the type lives with the graph it edits.
type Op = graph.Op

// Deletions samples count distinct edges of g uniformly; applying them in
// order is the paper's deletion workload. count is capped at M.
func Deletions(g *graph.Graph, count int, seed int64) []Op {
	edges := sample(g, count, seed)
	out := make([]Op, len(edges))
	for i, e := range edges {
		out[i] = Op{Insert: false, U: e[0], V: e[1]}
	}
	return out
}

// Insertions returns the re-insertion stream matching Deletions with the
// same seed: the paper deletes 10K random edges, then adds them back to
// measure insertion cost.
func Insertions(g *graph.Graph, count int, seed int64) []Op {
	edges := sample(g, count, seed)
	out := make([]Op, len(edges))
	for i, e := range edges {
		out[i] = Op{Insert: true, U: e[0], V: e[1]}
	}
	return out
}

// Mixed builds the 2×count mixed workload: count edges are deleted from g
// up front (the caller applies Prepare to its engine or graph), then the
// stream interleaves their re-insertion with deletions of count other
// random edges, shuffled.
type MixedWorkload struct {
	// Prepare holds the up-front deletions that produce G' from G.
	Prepare []Op
	// Stream holds the 2×count measured updates applied to G'.
	Stream []Op
}

// Mixed samples 2*count distinct edges: the first count are deleted up
// front and re-inserted during the stream, the second count are deleted
// during the stream.
func Mixed(g *graph.Graph, count int, seed int64) MixedWorkload {
	edges := sample(g, 2*count, seed)
	half := len(edges) / 2
	pre := edges[:half]
	del := edges[half:]
	var w MixedWorkload
	for _, e := range pre {
		w.Prepare = append(w.Prepare, Op{Insert: false, U: e[0], V: e[1]})
	}
	for _, e := range pre {
		w.Stream = append(w.Stream, Op{Insert: true, U: e[0], V: e[1]})
	}
	for _, e := range del {
		w.Stream = append(w.Stream, Op{Insert: false, U: e[0], V: e[1]})
	}
	rng := rand.New(rand.NewSource(seed + 7))
	rng.Shuffle(len(w.Stream), func(i, j int) {
		w.Stream[i], w.Stream[j] = w.Stream[j], w.Stream[i]
	})
	return w
}

// ClientOp is one operation of a closed-loop serving client: either a
// point read against the latest snapshot (CliqueOf / Contains on Node) or
// an edge update to enqueue.
type ClientOp struct {
	// Read selects a snapshot read (true) or an update (false).
	Read bool
	// Node is the read target; meaningful only when Read is set.
	Node int32
	// Update is the edge update; meaningful only when Read is clear.
	Update Op
}

// ReadWriteClients builds per-client closed-loop streams for a serving
// benchmark: each of the clients goroutines replays its own opsPerClient
// operations, issuing the next one as soon as the previous completes.
// readFrac (0..1) is the per-op probability of a read; reads target
// uniform random nodes. Writes toggle edges from a per-client partition of
// a uniform edge sample — each client first deletes an edge of its own,
// later re-inserts it, and so on alternating, so a stream can be replayed
// indefinitely and clients never fight over the same edge. The result is
// deterministic in (g, clients, opsPerClient, readFrac, seed).
func ReadWriteClients(g *graph.Graph, clients, opsPerClient int, readFrac float64, seed int64) [][]ClientOp {
	if clients <= 0 || opsPerClient <= 0 {
		return nil
	}
	edges := sample(g, g.M(), seed)
	out := make([][]ClientOp, clients)
	for c := range out {
		rng := rand.New(rand.NewSource(seed + int64(c)*7919))
		// The client's private edge partition: every clients-th edge.
		var own [][2]int32
		for i := c; i < len(edges); i += clients {
			own = append(own, edges[i])
		}
		ops := make([]ClientOp, opsPerClient)
		next := 0                      // cursor into own
		var deleted [][2]int32         // edges removed, pending re-insertion
		pending := map[[2]int32]bool{} // membership view of deleted
		for i := range ops {
			if rng.Float64() < readFrac || len(own) == 0 {
				ops[i] = ClientOp{Read: true, Node: int32(rng.Intn(g.N()))}
				continue
			}
			// Alternate delete/re-insert per edge so every write changes
			// the graph and density stays near the original no matter how
			// long the stream runs. When every owned edge is already out,
			// re-insertion is forced (never delete a pending edge twice).
			reinsert := len(deleted) > 0 && (len(deleted) == len(own) || rng.Intn(2) == 0)
			if reinsert {
				e := deleted[0]
				deleted = deleted[1:]
				delete(pending, e)
				ops[i] = ClientOp{Update: Op{Insert: true, U: e[0], V: e[1]}}
			} else {
				for pending[own[next%len(own)]] {
					next++
				}
				e := own[next%len(own)]
				next++
				deleted = append(deleted, e)
				pending[e] = true
				ops[i] = ClientOp{Update: Op{Insert: false, U: e[0], V: e[1]}}
			}
		}
		out[c] = ops
	}
	return out
}

// sample draws count distinct edges uniformly at random.
func sample(g *graph.Graph, count int, seed int64) [][2]int32 {
	edges := g.EdgeList()
	if count > len(edges) {
		count = len(edges)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return edges[:count]
}
