package dkclique

import (
	"io"

	"repro/internal/dynamic"
	"repro/internal/graph"
)

// Update is a single edge update for ApplyBatch: an insertion when Insert
// is set, a deletion otherwise.
type Update = graph.Op

// Dynamic maintains a near-optimal maximal disjoint k-clique set while the
// graph receives edge insertions and deletions (the paper's Section V). It
// keeps the candidate-clique index of §V-B and repairs the result set with
// swap operations (Algorithm 4), so a typical update costs microseconds
// instead of a full recomputation.
//
// Dynamic is single-writer: one goroutine at a time may call the mutating
// methods. Reads through Result and ResultSnapshot are safe from any
// goroutine concurrently with that writer; to queue and coalesce a stream
// of updates behind a managed writer, wrap the same state in a Service.
type Dynamic struct {
	e *dynamic.Engine
}

// DynamicStats counts engine activity since construction.
type DynamicStats = dynamic.Stats

// NewDynamic builds a dynamic maintainer from a starting graph and an
// initial disjoint k-clique set — normally the Cliques field of a static
// Find result. A nil or non-maximal initial set is completed greedily
// before the index is built.
func NewDynamic(g *Graph, k int, initial [][]int32) (*Dynamic, error) {
	return NewDynamicWorkers(g, k, initial, 0)
}

// NewDynamicWorkers is NewDynamic with an explicit parallelism bound for
// the index construction (Algorithm 5); workers <= 0 means GOMAXPROCS.
// Updates run on the caller's goroutine whatever the bound. The
// maintainer built — and every result it later produces — is identical
// for any worker count; workers only changes how fast the index builds.
func NewDynamicWorkers(g *Graph, k int, initial [][]int32, workers int) (*Dynamic, error) {
	e, err := dynamic.NewWorkers(g.g, k, initial, workers)
	if err != nil {
		return nil, err
	}
	return &Dynamic{e: e}, nil
}

// InsertEdge applies an edge insertion (Algorithm 6) and reports whether
// the edge was new. The result set only ever grows or stays equal on
// insertion.
func (d *Dynamic) InsertEdge(u, v int32) bool { return d.e.InsertEdge(u, v) }

// DeleteEdge applies an edge deletion (Algorithm 7) and reports whether
// the edge existed.
func (d *Dynamic) DeleteEdge(u, v int32) bool { return d.e.DeleteEdge(u, v) }

// ApplyBatch applies a stream of edge updates as one unit and returns how
// many changed the graph. The expensive candidate enumeration is coalesced
// — each node the batch freed and each clique it installed is enumerated
// once per batch, not once per update, on the caller's goroutine — so
// draining a queue of accumulated updates is much faster than replaying
// it one by one. Swaps run once, after the whole batch, so the resulting
// set can differ from calling InsertEdge / DeleteEdge in order. What
// holds either way: the same graph, a maximal disjoint k-clique set, a
// valid candidate index, and a result identical for every worker count;
// in the repository's tests a batched set stays within 95% of the
// op-by-op set's size.
func (d *Dynamic) ApplyBatch(ops []Update) int { return d.e.ApplyBatch(ops) }

// Size returns the current |S|.
func (d *Dynamic) Size() int { return d.e.Size() }

// K returns the clique size.
func (d *Dynamic) K() int { return d.e.K() }

// Result returns the current disjoint k-clique set, read from the
// engine's published snapshot: the call is allocation-free and the
// returned slices are immutable point-in-time data — they stay unchanged
// across later updates and must not be modified by the caller.
func (d *Dynamic) Result() [][]int32 { return d.e.Result() }

// ResultSnapshot returns an immutable point-in-time view of the
// maintained set (cliques, per-node membership index, graph N/M, version
// counter). Reading it is wait-free and allocation-free; for serving
// concurrent readers while updates stream in, see Service.
func (d *Dynamic) ResultSnapshot() *ResultSnapshot { return d.e.Snapshot() }

// IsFree reports whether node u is in no clique of the current set.
func (d *Dynamic) IsFree(u int32) bool { return d.e.IsFree(u) }

// NumCandidates returns the size of the candidate-clique index (the
// paper's Table VII "index size" column).
func (d *Dynamic) NumCandidates() int { return d.e.NumCandidates() }

// Stats returns activity counters, including the index construction time.
func (d *Dynamic) Stats() DynamicStats { return d.e.Stats() }

// Snapshot returns an immutable copy of the engine's current graph, e.g.
// to verify the maintained result or to re-run a static algorithm on the
// mutated topology.
func (d *Dynamic) Snapshot() *Graph { return &Graph{g: d.e.Graph().Snapshot()} }

// Save writes the maintainer's checkpoint image, the one format a
// durable Service also stores: the graph, the result set with its clique
// ids, and the snapshot version. The candidate index is rebuilt on load.
func (d *Dynamic) Save(w io.Writer) error { return d.e.WriteCheckpoint(w) }

// LoadDynamic restores a maintainer from a Save image. Result keeps its
// clique ids and order, and the first snapshot carries the saved version.
func LoadDynamic(r io.Reader) (*Dynamic, error) {
	e, err := dynamic.LoadCheckpoint(r, 0)
	if err != nil {
		return nil, err
	}
	return &Dynamic{e: e}, nil
}
