// Package graph provides the graph substrate used by every algorithm in this
// repository: a compact immutable CSR representation for the static
// algorithms, a mutable flat-row representation (per-node sorted neighbour
// slices plus an epoch-stamped mark array) for the dynamic engine, node
// orderings (degree, degeneracy, score), DAG orientation, edge-list text
// and binary I/O, and the edge update every layer above carries (Op, with
// its one list codec and validity rule).
//
// Node identifiers are dense int32 values in [0, N). All adjacency lists —
// static CSR rows and dynamic flat rows alike — are sorted ascending, which
// the k-clique engines rely on for merge-style intersections
// (IntersectSorted) and stamp-then-scan filtering.
package graph

import (
	"fmt"
	"slices"
)

// Graph is an immutable undirected graph in CSR (compressed sparse row)
// form. Build one with a Builder. Adjacency lists are sorted ascending and
// contain no duplicates or self-loops.
type Graph struct {
	offsets []int64 // len N+1
	adj     []int32 // len 2M, sorted within each node's slice
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Degree returns the number of neighbours of u.
func (g *Graph) Degree(u int32) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors returns u's sorted adjacency slice. The returned slice aliases
// the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(u int32) []int32 {
	return g.adj[g.offsets[u]:g.offsets[u+1]]
}

// HasEdge reports whether the undirected edge (u, v) exists.
func (g *Graph) HasEdge(u, v int32) bool {
	if u == v {
		return false
	}
	// Search the shorter list.
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	return SortedContains(g.Neighbors(u), v)
}

// MaxDegree returns the maximum node degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for u := 0; u < g.N(); u++ {
		if d := g.Degree(int32(u)); d > max {
			max = d
		}
	}
	return max
}

// Edges calls fn once per undirected edge with u < v. It stops early if fn
// returns false.
func (g *Graph) Edges(fn func(u, v int32) bool) {
	for u := int32(0); int(u) < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if v > u {
				if !fn(u, v) {
					return
				}
			}
		}
	}
}

// EdgeList returns all edges as (u, v) pairs with u < v, in node order.
func (g *Graph) EdgeList() [][2]int32 {
	out := make([][2]int32, 0, g.M())
	g.Edges(func(u, v int32) bool {
		out = append(out, [2]int32{u, v})
		return true
	})
	return out
}

// Degrees returns a freshly allocated degree array.
func (g *Graph) Degrees() []int32 {
	d := make([]int32, g.N())
	for u := range d {
		d[u] = int32(g.Degree(int32(u)))
	}
	return d
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	off := make([]int64, len(g.offsets))
	copy(off, g.offsets)
	adj := make([]int32, len(g.adj))
	copy(adj, g.adj)
	return &Graph{offsets: off, adj: adj}
}

// Builder accumulates edges and produces a Graph. Duplicate edges and
// self-loops are silently dropped at Build time. The zero value is not
// usable; call NewBuilder.
type Builder struct {
	n     int
	us    []int32
	vs    []int32
	fixed bool // n was given up front; AddEdge may not exceed it
}

// NewBuilder returns a Builder for a graph with exactly n nodes. Edges whose
// endpoints are outside [0, n) cause Build to fail.
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	return &Builder{n: n, fixed: true}
}

// NewGrowingBuilder returns a Builder whose node count is one more than the
// largest endpoint seen.
func NewGrowingBuilder() *Builder { return &Builder{} }

// AddEdge records the undirected edge (u, v).
func (b *Builder) AddEdge(u, v int32) {
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	if !b.fixed {
		if int(u) >= b.n {
			b.n = int(u) + 1
		}
		if int(v) >= b.n {
			b.n = int(v) + 1
		}
	}
}

// NumEdgesAdded returns the number of AddEdge calls so far (before dedup).
func (b *Builder) NumEdgesAdded() int { return len(b.us) }

// Build validates the accumulated edges and produces the CSR graph.
func (b *Builder) Build() (*Graph, error) {
	n := b.n
	for i := range b.us {
		if b.us[i] < 0 || b.vs[i] < 0 || int(b.us[i]) >= n || int(b.vs[i]) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) outside node range [0,%d)", b.us[i], b.vs[i], n)
		}
	}
	deg := make([]int64, n+1)
	for i := range b.us {
		if b.us[i] == b.vs[i] {
			continue // self-loop
		}
		deg[b.us[i]+1]++
		deg[b.vs[i]+1]++
	}
	for i := 1; i <= n; i++ {
		deg[i] += deg[i-1]
	}
	adj := make([]int32, deg[n])
	cursor := make([]int64, n)
	copy(cursor, deg[:n])
	for i := range b.us {
		u, v := b.us[i], b.vs[i]
		if u == v {
			continue
		}
		adj[cursor[u]] = v
		cursor[u]++
		adj[cursor[v]] = u
		cursor[v]++
	}
	// Sort each adjacency list and remove duplicates in place.
	offsets := make([]int64, n+1)
	w := int64(0)
	for u := 0; u < n; u++ {
		lo, hi := deg[u], deg[u+1]
		lst := adj[lo:hi]
		slices.Sort(lst)
		offsets[u] = w
		var prev int32 = -1
		for _, x := range lst {
			if x != prev {
				adj[w] = x
				w++
				prev = x
			}
		}
	}
	offsets[n] = w
	return &Graph{offsets: offsets, adj: adj[:w:w]}, nil
}

// MustBuild is Build that panics on error, for tests and generators whose
// inputs are valid by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges builds a graph with n nodes from an edge slice.
func FromEdges(n int, edges [][2]int32) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// Induced returns the subgraph induced on nodes (which need not be sorted),
// together with the mapping newID -> oldID. Node i of the result corresponds
// to nodes[i] after sorting/dedup.
//
// The old -> new remap avoids the per-call map the original used (it
// allocated on every lookup and dominated dynamic-engine construction
// profiles): for subsets that are a decent fraction of the graph a dense
// slice gives O(1) lookups (make returns a zeroed array for free, so 0
// marks "dropped" and stored ids are offset by one); for small subsets of
// huge graphs, where zeroing O(N) would dwarf the real work, lookups
// binary-search the sorted keep list instead.
func (g *Graph) Induced(nodes []int32) (*Graph, []int32) {
	keep := slices.Clone(nodes)
	slices.Sort(keep)
	keep = slices.Compact(keep)
	lookup := func(v int32) int32 { // old id -> new id, or -1
		nv, ok := slices.BinarySearch(keep, v)
		if !ok {
			return -1
		}
		return int32(nv)
	}
	if g.N() <= 8*len(keep) {
		remap := make([]int32, g.N()) // old id -> new id + 1; 0 = dropped
		for i, old := range keep {
			remap[old] = int32(i) + 1
		}
		lookup = func(v int32) int32 { return remap[v] - 1 }
	}
	b := NewBuilder(len(keep))
	for i, old := range keep {
		for _, v := range g.Neighbors(old) {
			if nv := lookup(v); nv > int32(i) {
				b.AddEdge(int32(i), nv)
			}
		}
	}
	sub := b.MustBuild()
	return sub, keep
}
