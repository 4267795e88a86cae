// Package dynamic maintains a near-optimal maximal set of disjoint
// k-cliques under edge insertions and deletions — the paper's Section V.
//
// The engine keeps, besides the result set S, the candidate-clique index of
// §V-B: every k-clique that contains at least one free node (a node in no
// S-clique) and whose non-free nodes all belong to a single S-clique (its
// owner). When an update touches an S-clique, the candidates owned by it
// are exactly the cliques a swap operation (Algorithm 4, TrySwap) may
// exchange it for; maintaining them incrementally is what makes updates run
// in micro- rather than milliseconds. Every update enumerates only through
// what it changed: an inserted edge, the nodes it freed (anchor.go), or an
// S-clique it installed; only a newly installed clique gets Algorithm 5's
// full enumeration.
//
// Every mutation runs under one discipline, the unit (batch.go): it applies
// the structural part of its updates eagerly and defers the enumeration to
// one settle step, which refreshes the index and then runs TrySwap.
// InsertEdge and DeleteEdge are units of one update, ApplyBatch a unit of
// many, and every swap TrySwap executes is a unit of its own.
//
// Invariants maintained between public calls (checked by Verify):
//
//  1. S is a disjoint k-clique set of the current graph.
//  2. S is maximal: no k-clique exists whose members are all free.
//  3. The candidate index holds exactly the candidate k-cliques of §V-A
//     for the current graph and S, each keyed to its owner. It keeps them
//     in pointer-free slots, on int32-linked lists per owner and per node
//     and in a digest table (candindex.go).
//
// The engine is single-writer, multi-reader: one goroutine at a time may
// call the mutating entry points, while any number of goroutines read the
// maintained result through Snapshot — an immutable point-in-time view
// published through an atomic pointer after every update (see snapshot.go).
// A published snapshot is never mutated; readers keep it valid forever.
package dynamic

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/kclique"
)

// free marks a node that belongs to no S-clique.
const free int32 = -1

// Stats counts engine activity since construction.
type Stats struct {
	// IndexBuild is the time Construction (Algorithm 5) took.
	IndexBuild time.Duration
	// Swaps counts executed swap operations (voluntary and forced).
	Swaps int
	// CandidatesCreated / CandidatesDropped count index churn.
	CandidatesCreated int
	CandidatesDropped int
	// Insertions / Deletions count processed updates.
	Insertions int
	Deletions  int
	// Batches / BatchedOps count ApplyBatch calls and the ops they carried
	// (each op also increments Insertions or Deletions as usual).
	Batches    int
	BatchedOps int
}

// Engine maintains the disjoint k-clique set and its candidate index.
type Engine struct {
	g *graph.Dynamic
	k int

	// view is g seen through the substrate-neutral adjacency view the
	// unified enumeration core in internal/kclique runs on (oriented by
	// ascending node id). Boxed once at construction so the hot update
	// path never re-converts.
	view graph.View

	// workers bounds the parallelism of whole-index builds (buildIndex:
	// construction, LoadCheckpoint, CanonicalizeIndex); <= 0 means
	// GOMAXPROCS. Updates always settle on the caller's goroutine.
	workers int

	cliques    map[int32][]int32 // S: clique id -> sorted members
	nodeClique []int32           // node -> owning clique id, or free
	nextClique int32

	// index holds the candidate cliques of invariant 3, each keyed to its
	// owner, in pointer-free slots (candindex.go).
	index candIndex

	// unit holds the deferred work of the mutation in progress; see
	// batch.go.
	unit unit

	// esc is the single-writer enumeration scratch: every update and every
	// settle enumerates through these reusable buffers, so the
	// steady-state update path allocates nothing. Its kc.NoStamp puts
	// every enumeration on the merge recursion of the unified core
	// (DisableUnifiedFastPath), and index builds copy it to their
	// per-worker scratches.
	esc *enumScratch

	// snapSlab / snapUsed carve published Snapshot structs out of
	// slab-allocated blocks so S-preserving publication is allocation-free
	// in steady state. A slab holds one array generation only, so the
	// engine pins just the current clique set; see nextSnapshot in
	// snapshot.go.
	snapSlab []Snapshot
	snapUsed int

	// sgen counts changes to S (clique installs/removals); publish reuses
	// the previous snapshot's arrays when it has not moved. orderIds /
	// orderCliques hold S sorted by clique id, maintained incrementally by
	// orderInstall/orderRemove, so publication clones flat arrays instead
	// of sorting; the member slices are shared with e.cliques and never
	// mutated in place. Between publishes the order may hold orderHoles
	// removed entries (nil member slices); publish compacts them. snap
	// holds the latest published snapshot — the only engine state readers
	// may touch.
	sgen         uint64
	orderIds     []int32
	orderCliques [][]int32
	orderHoles   int
	snap         atomic.Pointer[Snapshot]

	// ver0 seeds the version counter of the first published snapshot
	// (ver0 + 1). Zero for fresh engines; LoadCheckpoint sets it so a
	// recovered engine resumes the persisted version sequence and replayed
	// updates land on exactly the version numbers they had pre-crash.
	ver0 uint64

	// nodePages is the currently published paged membership index;
	// nodeDirty/nodeDirtyB track which pages the updates since the last
	// publish touched, so publication refreshes only those (snapshot.go).
	nodePages  [][]int32
	nodeDirty  []int32
	nodeDirtyB []bool

	stats Stats

	// noSwaps disables voluntary swap operations (ablation studies); all
	// correctness invariants still hold, only result quality drops.
	noSwaps bool
}

// DisableSwaps turns off voluntary swap operations. Used by the ablation
// benchmarks to quantify how much TrySwap contributes to result quality.
func (e *Engine) DisableSwaps() { e.noSwaps = true }

// DisableUnifiedFastPath forces every enumeration the engine issues onto
// the merge recursion, turning off the word-packed kernel and the stamped
// first level the unified core shares with the static enumerators. Used
// by the cmd/experiments -unified=off ablation to make the speedup of the
// shared fast paths reproducible; the maintained result is identical
// either way.
func (e *Engine) DisableUnifiedFastPath() { e.esc.kc.NoStamp = true }

// New builds an engine from a static graph and an initial disjoint
// k-clique set (typically the output of the static LP algorithm), then
// constructs the candidate index with Algorithm 5 using every CPU.
func New(g *graph.Graph, k int, initial [][]int32) (*Engine, error) {
	return NewWorkers(g, k, initial, 0)
}

// NewWorkers is New with an explicit parallelism bound for the Algorithm-5
// index construction, which LoadCheckpoint and CanonicalizeIndex also
// run; workers <= 0 means GOMAXPROCS. Updates settle on the caller's
// goroutine whatever the bound. The constructed engine is identical for
// every worker count.
func NewWorkers(g *graph.Graph, k int, initial [][]int32, workers int) (*Engine, error) {
	if k < 3 {
		return nil, fmt.Errorf("dynamic: k must be >= 3, got %d", k)
	}
	e := newEngineShell(graph.DynamicFrom(g), k, workers)
	for _, c := range initial {
		if len(c) != k {
			return nil, fmt.Errorf("dynamic: initial clique has %d members, want %d", len(c), k)
		}
		if !e.g.IsClique(c) {
			return nil, fmt.Errorf("dynamic: initial members %v are not a clique", c)
		}
		cc := append([]int32(nil), c...)
		slices.Sort(cc)
		id := e.nextClique
		e.nextClique++
		for _, u := range cc {
			if e.nodeClique[u] != free {
				return nil, fmt.Errorf("dynamic: node %d in two initial cliques", u)
			}
			e.nodeClique[u] = id
		}
		e.cliques[id] = cc
		e.orderInstall(id, cc)
	}
	// The candidate index assumes S is maximal (a non-maximal S would make
	// all-free cliques "candidates" of nobody). Complete the initial set
	// greedily over the free-node induced subgraph before indexing.
	e.completeMaximal(g)
	start := time.Now()
	e.buildIndex()
	e.stats.IndexBuild = time.Since(start)
	e.publish()
	return e, nil
}

// newEngineShell builds an engine around an existing dynamic graph with
// an empty result set and candidate index. Shared by the public
// constructors and the checkpoint loader.
func newEngineShell(dg *graph.Dynamic, k, workers int) *Engine {
	n := dg.N()
	e := &Engine{
		g:          dg,
		k:          k,
		workers:    workers,
		cliques:    make(map[int32][]int32),
		nodeClique: make([]int32, n),
		index:      newCandIndex(k, n),
		esc:        newEnumScratch(k),
	}
	e.view = e.g.View()
	for i := range e.nodeClique {
		e.nodeClique[i] = free
	}
	return e
}

// completeMaximal extends S with disjoint k-cliques drawn from the free
// nodes of the static build-time graph until no all-free k-clique remains.
// A single greedy enumeration pass suffices: any clique whose members are
// all still free when the pass ends would have been taken when visited.
func (e *Engine) completeMaximal(g *graph.Graph) {
	var freeNodes []int32
	for u := int32(0); int(u) < g.N(); u++ {
		if e.nodeClique[u] == free {
			freeNodes = append(freeNodes, u)
		}
	}
	if len(freeNodes) < e.k {
		return
	}
	sub, ids := g.Induced(freeNodes)
	d := graph.Orient(sub, graph.ListingOrdering(sub))
	kclique.ForEach(d, e.k, func(c []int32) bool {
		ok := true
		for _, x := range c {
			if e.nodeClique[ids[x]] != free {
				ok = false
				break
			}
		}
		if ok {
			members := make([]int32, len(c))
			for i, x := range c {
				members[i] = ids[x]
			}
			slices.Sort(members)
			id := e.nextClique
			e.nextClique++
			for _, u := range members {
				e.nodeClique[u] = id
			}
			e.cliques[id] = members
			e.orderInstall(id, members)
		}
		return true
	})
}

// K returns the clique size.
func (e *Engine) K() int { return e.k }

// Size returns |S|.
func (e *Engine) Size() int { return len(e.cliques) }

// NumCandidates returns the current size of the candidate index.
func (e *Engine) NumCandidates() int { return e.index.live }

// Stats returns activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// Graph exposes the current dynamic graph (read-only use).
func (e *Engine) Graph() *graph.Dynamic { return e.g }

// Result returns the current disjoint k-clique set, each clique sorted,
// cliques ordered by id for determinism. It reads the published snapshot,
// so the call is allocation-free; the returned slices are immutable
// point-in-time data shared with the snapshot and must not be modified
// (they stay valid and unchanged across later updates).
func (e *Engine) Result() [][]int32 { return e.Snapshot().Cliques() }

// IsFree reports whether u belongs to no S-clique.
func (e *Engine) IsFree(u int32) bool { return e.nodeClique[u] == free }

// addCandidate indexes a candidate clique (members must be sorted) unless
// an identical one exists, and reports whether it was new. An existing
// candidate necessarily already has this owner — its non-free members
// determine the owner uniquely, and the index never holds a candidate
// across an S change that moved them.
func (e *Engine) addCandidate(nodes []int32, owner int32) bool {
	if !e.index.add(nodes, owner) {
		return false
	}
	e.stats.CandidatesCreated++
	return true
}

// numCandidatesOfOwner returns how many candidates the clique owns.
func (e *Engine) numCandidatesOfOwner(owner int32) int { return int(e.index.byOwner[owner].n) }

// dropCandidatesOfOwner removes every candidate owned by the clique.
func (e *Engine) dropCandidatesOfOwner(owner int32) {
	e.stats.CandidatesDropped += e.index.dropOwner(owner)
}

// dropCandidatesWithNode removes every candidate containing u.
func (e *Engine) dropCandidatesWithNode(u int32) {
	e.stats.CandidatesDropped += e.index.dropWithNode(u)
}

// dropCandidatesWithEdge removes every candidate containing both u and v.
func (e *Engine) dropCandidatesWithEdge(u, v int32) {
	e.stats.CandidatesDropped += e.index.dropWithEdge(u, v)
}

// ownedMembers returns the member lists of the candidates the clique
// owns, in the order of its list, staged in the engine scratch: valid
// until the next call, and the lists alias the index's member slots.
func (e *Engine) ownedMembers(owner int32) [][]int32 {
	lists := e.esc.swapLists[:0]
	for s := e.index.byOwner[owner].head; s != 0; s = e.index.own.next[s] {
		lists = append(lists, e.index.slotMembers(s))
	}
	e.esc.swapLists = lists
	return lists
}
