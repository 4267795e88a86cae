// Package dkclique computes near-optimal maximum sets of disjoint
// k-cliques in large graphs, implementing "Finding Near-Optimal Maximum Set
// of Disjoint k-Cliques in Real-World Social Networks" (ICDE 2025).
//
// A disjoint k-clique set is a family of k-cliques sharing no node; finding
// a maximum one is NP-hard for k >= 3. The package offers the paper's five
// methods — the recommended one is LP, the lightweight score-ordered greedy
// with pruning, which returns a maximal set (a k-approximation of the
// maximum, Theorem 3) in near-listing time without storing cliques:
//
//	g, _ := dkclique.Generate(dkclique.CommunitySocial(10000, 8, 0.3, 20000, 1))
//	res, _ := dkclique.Find(g, dkclique.Options{K: 4, Algorithm: dkclique.LP})
//	fmt.Println(res.Size(), "disjoint 4-cliques")
//
// For graphs that change over time, NewDynamic maintains the result set
// under edge insertions and deletions in microseconds per update (Section V
// of the paper). Single updates apply with InsertEdge / DeleteEdge; a queue
// of accumulated updates drains fastest through ApplyBatch, which coalesces
// the index maintenance they share into one settle step:
//
//	dyn, _ := dkclique.NewDynamic(g, 4, res.Cliques)
//	dyn.InsertEdge(17, 42)
//	dyn.ApplyBatch([]dkclique.Update{
//		{Insert: true, U: 3, V: 9},
//		{Insert: false, U: 12, V: 70},
//	})
//	fmt.Println(dyn.Size())
//
// To serve the maintained set to concurrent readers while updates stream
// in, NewService wraps the dynamic engine behind a single writer goroutine
// with a coalescing update queue; readers get immutable point-in-time
// snapshots through wait-free, allocation-free loads:
//
//	svc, _ := dkclique.NewService(g, 4, res.Cliques, dkclique.ServiceOptions{})
//	defer svc.Close()
//	svc.Enqueue(ctx, dkclique.Update{Insert: true, U: 3, V: 9})
//	snap := svc.Snapshot() // safe from any goroutine, never mutated
//
// Every parallel path — Find's score counting and heap initialisation,
// and the dynamic engine's index construction — honours Options.Workers
// (or the NewDynamicWorkers bound) and produces worker-count-independent
// results: identical sets under Options.StrictTies, identical sizes
// otherwise. Updates run on the caller's goroutine.
//
// Internally, the static algorithms and the dynamic maintenance engine
// run the same k-clique enumeration core over a substrate-neutral
// adjacency view, so the enumeration fast paths (stamped intersections,
// scratch reuse, the parallel worker pool) apply to static listing and
// to the hot update path alike; see ARCHITECTURE.md for the layer
// diagram.
package dkclique

import (
	"io"

	"repro/internal/core"
	"repro/internal/graph"
)

// Algorithm selects one of the paper's five methods; see the constants.
type Algorithm = core.Algorithm

// The five methods evaluated in the paper's §VI.
const (
	// HG is Algorithm 1: the basic framework over a degree-ordered DAG.
	// Fastest, lowest quality.
	HG = core.HG
	// GC is Algorithm 2: store every k-clique, process by ascending clique
	// score. Near-optimal quality but memory-hungry.
	GC = core.GC
	// L is Algorithm 3 without the score-driven pruning.
	L = core.L
	// LP is Algorithm 3 with pruning: the paper's recommended method.
	LP = core.LP
	// OPT is the exact baseline: clique graph + exact maximum independent
	// set. Exponential; only for small graphs.
	OPT = core.OPT
)

// Options configures Find; the zero value of every field has a sensible
// default except K, which is required (>= 3).
type Options = core.Options

// Result is the output of Find.
type Result = core.Result

// Sentinel errors for budget exhaustion, mirroring the paper's OOT/OOM
// experiment outcomes.
var (
	ErrOOT = core.ErrOOT
	ErrOOM = core.ErrOOM
)

// ParseAlgorithm converts a name such as "LP" into an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// Graph is an immutable undirected graph. Build one with NewBuilder,
// FromEdges, Read, or Generate.
type Graph struct {
	g *graph.Graph
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.g.N() }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.g.M() }

// Degree returns the degree of node u.
func (g *Graph) Degree(u int32) int { return g.g.Degree(u) }

// HasEdge reports whether the edge (u, v) exists.
func (g *Graph) HasEdge(u, v int32) bool { return g.g.HasEdge(u, v) }

// Neighbors returns u's sorted adjacency list; the slice must not be
// modified.
func (g *Graph) Neighbors(u int32) []int32 { return g.g.Neighbors(u) }

// Edges calls fn for every edge with u < v until fn returns false.
func (g *Graph) Edges(fn func(u, v int32) bool) { g.g.Edges(fn) }

// Write emits the graph as a plain edge list.
func (g *Graph) Write(w io.Writer) error { return graph.WriteEdgeList(w, g.g) }

// WriteBinary emits a compact binary encoding that ReadBinary loads an
// order of magnitude faster than edge-list text on large graphs.
func (g *Graph) WriteBinary(w io.Writer) error { return graph.WriteBinary(w, g.g) }

// ReadBinary parses a WriteBinary stream, validating its invariants.
func ReadBinary(r io.Reader) (*Graph, error) {
	g, err := graph.ReadBinary(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// Builder accumulates edges for a Graph. Duplicates and self-loops are
// dropped at Build time.
type Builder struct {
	b *graph.Builder
}

// NewBuilder returns a builder for a graph with exactly n nodes.
func NewBuilder(n int) *Builder { return &Builder{b: graph.NewBuilder(n)} }

// AddEdge records the undirected edge (u, v).
func (b *Builder) AddEdge(u, v int32) { b.b.AddEdge(u, v) }

// Build produces the graph.
func (b *Builder) Build() (*Graph, error) {
	g, err := b.b.Build()
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// FromEdges builds a graph with n nodes from an edge list.
func FromEdges(n int, edges [][2]int32) (*Graph, error) {
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// Read parses a whitespace-separated edge list ('#'/'%' comments allowed;
// extra columns ignored; ids compacted).
func Read(r io.Reader) (*Graph, error) {
	g, err := graph.ReadEdgeList(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// Find computes a maximal disjoint k-clique set of g with the selected
// method (Options.Algorithm, default HG; use LP for the paper's recommended
// trade-off). The graph is not modified and may be shared.
func Find(g *Graph, opt Options) (*Result, error) {
	return core.Find(g.g, opt)
}

// Verify checks that cliques is a valid disjoint k-clique set of g.
func Verify(g *Graph, k int, cliques [][]int32) error {
	return core.Verify(g.g, k, cliques)
}

// IsMaximal reports whether no further k-clique fits in g after removing
// the nodes covered by cliques.
func IsMaximal(g *Graph, k int, cliques [][]int32) bool {
	return core.IsMaximal(g.g, k, cliques)
}
