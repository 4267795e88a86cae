package graph

import "slices"

// An Ordering assigns each node a distinct rank η in [0, N). Algorithms in
// this repository follow the paper's convention (Algorithm 1 line 3): the
// DAG edge u -> v exists iff η(u) > η(v), so the out-neighbours of u are its
// neighbours with smaller rank, and each k-clique is enumerated exactly once
// from its maximum-rank member.
type Ordering struct {
	// Rank[u] is η(u).
	Rank []int32
	// ByRank[r] is the node with rank r (the inverse permutation).
	ByRank []int32
}

// DegreeOrdering ranks nodes ascending by degree: a node with a larger
// degree has a larger rank (paper §IV-A). Ties broken by id. Degrees are
// small integers, so this is a counting sort: next[d] starts as the first
// rank of degree d, and nodes take ranks in id order.
func DegreeOrdering(g *Graph) Ordering {
	n := g.N()
	next := make([]int32, g.MaxDegree()+2)
	for u := int32(0); int(u) < n; u++ {
		next[g.Degree(u)+1]++
	}
	for d := 1; d < len(next); d++ {
		next[d] += next[d-1]
	}
	ord := Ordering{Rank: make([]int32, n), ByRank: make([]int32, n)}
	for u := int32(0); int(u) < n; u++ {
		d := g.Degree(u)
		ord.Rank[u], ord.ByRank[next[d]] = next[d], u
		next[d]++
	}
	return ord
}

// ScoreOrdering ranks nodes ascending by the given per-node score (the
// node scores s_n of Algorithm 3 line 3). Ties broken by (degree, id).
// It is a stable LSD radix sort of DegreeOrdering's (degree, id)
// permutation, one counting pass per byte of the score span max − min,
// keyed on score − min so any int64 scores work. Scores on social graphs
// span a byte or two, so this is one or two passes over the nodes.
func ScoreOrdering(g *Graph, score []int64) Ordering {
	// DegreeOrdering's Rank array is not needed: it is the pass buffer,
	// and then the rank array of the result.
	ord := DegreeOrdering(g)
	perm, buf := ord.ByRank, ord.Rank
	if len(perm) == 0 {
		return ord
	}
	score = score[:len(perm)]
	lo := uint64(slices.Min(score))
	span := uint64(slices.Max(score)) - lo
	for shift := 0; shift < 64 && span>>shift != 0; shift += 8 {
		var next [256]int
		for _, u := range perm {
			next[byte((uint64(score[u])-lo)>>shift)]++
		}
		at := 0
		for b, c := range next {
			next[b] = at
			at += c
		}
		for _, u := range perm {
			b := byte((uint64(score[u]) - lo) >> shift)
			buf[next[b]] = u
			next[b]++
		}
		perm, buf = buf, perm
	}
	for r, u := range perm {
		buf[u] = int32(r)
	}
	return Ordering{Rank: buf, ByRank: perm}
}

// DegeneracyOrdering computes the standard core (degeneracy) ordering by
// repeatedly removing a minimum-degree node. The first removed node gets
// rank 0. It returns the ordering and the graph degeneracy.
func DegeneracyOrdering(g *Graph) (Ordering, int) {
	return peel(g, false)
}

// peel computes the degeneracy ordering, or its reverse when reversed is
// set (the first removed node gets rank n-1), and the graph degeneracy.
func peel(g *Graph, reversed bool) (Ordering, int) {
	n := g.N()
	deg := make([]int32, n)
	maxDeg := 0
	for u := 0; u < n; u++ {
		deg[u] = int32(g.Degree(int32(u)))
		if int(deg[u]) > maxDeg {
			maxDeg = int(deg[u])
		}
	}
	// Bucket queue over degrees.
	binStart := make([]int32, maxDeg+2)
	for u := 0; u < n; u++ {
		binStart[deg[u]+1]++
	}
	for d := 1; d <= maxDeg+1; d++ {
		binStart[d] += binStart[d-1]
	}
	pos := make([]int32, n)  // position of node in vert
	vert := make([]int32, n) // nodes sorted by current degree
	fill := append([]int32(nil), binStart[:maxDeg+1]...)
	for u := 0; u < n; u++ {
		d := deg[u]
		pos[u] = fill[d]
		vert[fill[d]] = int32(u)
		fill[d]++
	}
	rank := make([]int32, n)
	byRank := make([]int32, n)
	removed := make([]bool, n)
	degeneracy := 0
	for i := 0; i < n; i++ {
		u := vert[i]
		if int(deg[u]) > degeneracy {
			degeneracy = int(deg[u])
		}
		r := int32(i)
		if reversed {
			r = int32(n - 1 - i)
		}
		rank[u] = r
		byRank[r] = u
		removed[u] = true
		for _, v := range g.Neighbors(u) {
			// Only nodes in strictly higher buckets move; nodes with
			// deg <= deg[u] are at the current peel level already and their
			// stored degree no longer matters (standard Batagelj–Zaveršnik
			// guard, which also keeps bucket fronts past position i).
			if removed[v] || deg[v] <= deg[u] {
				continue
			}
			dv := deg[v]
			// Swap v with the first node of its bucket, then shrink the
			// bucket: v lands in bucket dv-1 at the vacated front slot.
			pw := binStart[dv]
			w := vert[pw]
			if w != v {
				vert[pw], vert[pos[v]] = v, w
				pos[w] = pos[v]
				pos[v] = pw
			}
			binStart[dv]++
			deg[v]--
		}
	}
	return Ordering{Rank: rank, ByRank: byRank}, degeneracy
}

// Reverse returns the ordering with all ranks flipped: the node that was
// ranked first becomes last. Useful to turn the degeneracy ordering (small
// rank = peeled early) into the clique-listing orientation where
// out-neighbourhoods (smaller rank under this package's convention) are
// bounded by the degeneracy.
func (o Ordering) Reverse() Ordering {
	n := int32(len(o.Rank))
	rev := Ordering{Rank: make([]int32, n), ByRank: make([]int32, n)}
	for u, r := range o.Rank {
		rev.Rank[u] = n - 1 - r
	}
	for r, u := range o.ByRank {
		rev.ByRank[n-1-int32(r)] = u
	}
	return rev
}

// ListingOrdering returns the ordering used for k-clique listing: reversed
// degeneracy order, so each node's out-neighbourhood has size at most the
// graph degeneracy. The peel assigns the reversed ranks directly.
func ListingOrdering(g *Graph) Ordering {
	ord, _ := peel(g, true)
	return ord
}

// DAG is the oriented version of a Graph under an Ordering: the
// out-neighbours of u are its neighbours with smaller rank, kept sorted by
// node id, matching the parent graph's adjacency order. Out-rows are stored
// in CSR form like the Graph itself: one offsets array and one flat array.
type DAG struct {
	G       *Graph
	Ord     Ordering
	offsets []int64 // len N+1; Out(u) is out[offsets[u]:offsets[u+1]]
	out     []int32 // len M
}

// Orient builds the DAG of g under ord in one pass. Ranks are distinct,
// so every edge is oriented exactly once and the rows fill exactly M
// slots; each row's end offset is written as the row closes. Each
// neighbour is stored unconditionally and kept by advancing the write
// position only when it has the smaller rank: half of all adjacency
// entries are kept, each edge from one of its two ends, and a branch on
// which would mispredict often. The store after the last kept neighbour
// needs one slot of slack.
func Orient(g *Graph, ord Ordering) *DAG {
	n := g.N()
	rank := ord.Rank
	offsets := make([]int64, n+1)
	out := make([]int32, g.M()+1)
	w := int64(0)
	for u := int32(0); int(u) < n; u++ {
		ru := rank[u]
		for _, v := range g.Neighbors(u) {
			out[w] = v
			var keep int64
			if rank[v] < ru {
				keep = 1
			}
			w += keep
		}
		offsets[u+1] = w
	}
	return &DAG{G: g, Ord: ord, offsets: offsets, out: out[:w]}
}

// Out returns the out-neighbours of u (neighbours with smaller rank),
// sorted by node id. The slice aliases internal storage and must not be
// modified.
func (d *DAG) Out(u int32) []int32 {
	return d.out[d.offsets[u]:d.offsets[u+1]:d.offsets[u+1]]
}

// OutDegree returns |N+(u)|.
func (d *DAG) OutDegree(u int32) int { return int(d.offsets[u+1] - d.offsets[u]) }

// N returns the number of nodes.
func (d *DAG) N() int { return d.G.N() }
