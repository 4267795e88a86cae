package dynamic

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// MVCC read path. The engine is single-writer: one goroutine (or one
// caller at a time) applies updates, but any number of goroutines may read
// the maintained result concurrently. Instead of guarding the live
// structures with a lock, the engine publishes an immutable *Snapshot
// through an atomic pointer after every mutating entry point; readers load
// the pointer — wait-free, zero allocations — and keep using the snapshot
// for as long as they like. A snapshot is point-in-time: it is never
// mutated after publication, so two loads may observe different snapshots
// but each one is internally consistent forever.
//
// Publication is copy-on-write: an update that leaves S untouched (most
// insertions) reuses the previous snapshot's arrays and only stamps a
// fresh version and graph M; an update that changes S clones the writer's
// incrementally maintained order (two flat memcpys plus the membership
// pages it touched — no sorting, no per-clique copying) and shares the
// immutable member slices. Superseded versions are freed the
// read-copy-update way: once no reader holds a snapshot of a generation,
// nothing keeps its arrays alive (see snapSlabSize).

// Snapshot is an immutable point-in-time view of the maintained disjoint
// k-clique set. All methods are safe for concurrent use and never return
// data that a later update can mutate; the slices they expose are shared
// with the snapshot and must not be modified by callers.
type Snapshot struct {
	version  uint64
	sgen     uint64 // S-change generation, for copy-on-write reuse
	schanged uint64 // version at which S last changed (<= version)
	k        int
	n, m     int
	ids      []int32   // sorted clique ids, parallel to cliques
	cliques  [][]int32 // sorted members, ascending clique-id order
	// nodePg is the node -> clique id (or free) membership index, paged so
	// publication clones only the pages an update touched instead of the
	// whole N-sized array. Pages are immutable once published; entries
	// beyond n in the last page are unused (bounds are checked against n).
	nodePg [][]int32
	stats  Stats
}

// nodePageShift/nodePageSize split the node-id space into fixed pages for
// the snapshot membership index: small enough that an update dirties a few
// kilobytes, large enough to keep the page table tiny.
const (
	nodePageShift = 8
	nodePageSize  = 1 << nodePageShift
	nodePageMask  = nodePageSize - 1
)

// nodeAt returns the membership entry for u; bounds must be pre-checked.
func (s *Snapshot) nodeAt(u int32) int32 {
	return s.nodePg[u>>nodePageShift][u&nodePageMask]
}

// Version returns the publication counter: it starts at 1 when the engine
// is constructed and increases by one with every published update, so a
// reader polling Snapshot observes strictly increasing versions whenever
// the state changed.
func (s *Snapshot) Version() uint64 { return s.version }

// K returns the clique size.
func (s *Snapshot) K() int { return s.k }

// SChanged returns the version of the last publication that changed the
// clique set S (always <= Version; equal when this very publication
// moved S). Version() - SChanged() is the snapshot's age in versions —
// how many S-preserving publications have passed since the result set
// last moved.
func (s *Snapshot) SChanged() uint64 { return s.schanged }

// Size returns |S| at publication time.
func (s *Snapshot) Size() int { return len(s.cliques) }

// N returns the number of graph nodes at publication time.
func (s *Snapshot) N() int { return s.n }

// M returns the number of graph edges at publication time.
func (s *Snapshot) M() int { return s.m }

// Stats returns the engine activity counters as of publication.
func (s *Snapshot) Stats() Stats { return s.stats }

// Cliques returns the clique set, each clique sorted, ordered by the
// engine's internal clique id (the same deterministic order Result always
// used). The outer and inner slices are shared with the snapshot and must
// not be modified.
func (s *Snapshot) Cliques() [][]int32 { return s.cliques }

// Clique returns the i-th clique of Cliques.
func (s *Snapshot) Clique(i int) []int32 { return s.cliques[i] }

// CliqueOf returns the sorted members of the clique containing u, or nil
// if u is free or out of range. The slice is shared and must not be
// modified.
func (s *Snapshot) CliqueOf(u int32) []int32 {
	if i := s.indexOf(u); i >= 0 {
		return s.cliques[i]
	}
	return nil
}

// Contains reports whether u belongs to some clique of the set.
func (s *Snapshot) Contains(u int32) bool {
	return u >= 0 && int(u) < s.n && s.nodeAt(u) != free
}

// indexOf returns the position in Cliques of u's clique, or -1. The
// membership index stores stable clique ids (so updates never reposition
// unrelated entries); the position is recovered by binary search over the
// sorted id list. Nodes appended by AddNode after the index was last
// rebuilt are free by construction, so the bounds check doubles as the
// correct answer.
func (s *Snapshot) indexOf(u int32) int {
	if u < 0 || int(u) >= s.n {
		return -1
	}
	id := s.nodeAt(u)
	if id == free {
		return -1
	}
	pos := graph.LowerBound(s.ids, id)
	if pos == len(s.ids) || s.ids[pos] != id {
		return -1
	}
	return pos
}

// Validate checks the snapshot's internal invariants — every clique has
// exactly k distinct members, the cliques are pairwise disjoint, and the
// membership index is the exact inverse of the clique list. It does not
// (and cannot) check cliquehood against a graph; pair it with a graph
// snapshot and Verify for that. Meant for tests and debugging endpoints.
func (s *Snapshot) Validate() error {
	if len(s.ids) != len(s.cliques) {
		return fmt.Errorf("snapshot: %d ids for %d cliques", len(s.ids), len(s.cliques))
	}
	if !slices.IsSorted(s.ids) {
		return fmt.Errorf("snapshot: clique ids not sorted")
	}
	mapped := 0
	for i, c := range s.cliques {
		if len(c) != s.k {
			return fmt.Errorf("snapshot: clique %d has %d members, want %d", i, len(c), s.k)
		}
		if !slices.IsSorted(c) {
			return fmt.Errorf("snapshot: clique %d (%v) is not sorted", i, c)
		}
		for j := 1; j < len(c); j++ {
			if c[j] == c[j-1] {
				return fmt.Errorf("snapshot: clique %d repeats node %d", i, c[j])
			}
		}
		for _, u := range c {
			if got := s.indexOf(u); got != i {
				return fmt.Errorf("snapshot: node %d in clique %d but index says %d", u, i, got)
			}
		}
	}
	for u := int32(0); int(u) < s.n; u++ {
		id := s.nodeAt(u)
		if id == free {
			continue
		}
		mapped++
		pos, ok := slices.BinarySearch(s.ids, id)
		if !ok {
			return fmt.Errorf("snapshot: node %d mapped to missing clique id %d", u, id)
		}
		if !slices.Contains(s.cliques[pos], u) {
			return fmt.Errorf("snapshot: node %d mapped to clique %d that does not list it", u, id)
		}
	}
	if want := len(s.cliques) * s.k; mapped != want {
		return fmt.Errorf("snapshot: index maps %d nodes, cliques cover %d", mapped, want)
	}
	return nil
}

// Snapshot returns the most recently published snapshot. The load is
// wait-free and allocation-free; the result is immutable and stays valid
// across any number of later updates. Safe to call from any goroutine
// concurrently with a single writer applying updates.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// snapSlabSize caps the number of Snapshot structs carved from one slab.
//
// A slab holds the snapshots of one array generation only: every slot
// shares the ids, cliques and nodePg arrays of the publish that built
// them. Readers holding any slot keep the whole slab reachable, and with
// it that one generation's arrays, |S| x 28 B plus the membership pages.
// A publish that builds new arrays starts a fresh slab, so the engine's
// own references (snap, snapSlab) pin exactly one generation; an older
// one is garbage once no reader holds a snapshot of it.
const snapSlabSize = 1024

// nextSnapshot carves the next Snapshot struct for the current array
// generation. A generation's first snapshot comes from a one-slot slab;
// each later slab doubles, up to snapSlabSize, so a long S-preserving
// streak costs one allocation per snapSlabSize publishes and a short one
// wastes at most half its slab. Each slot is written once, before the
// atomic store that publishes it, and never touched again; distinct
// slots are distinct memory locations, so readers of older snapshots are
// undisturbed.
func (e *Engine) nextSnapshot() *Snapshot {
	if e.snapUsed == len(e.snapSlab) {
		e.snapSlab = make([]Snapshot, min(max(2*len(e.snapSlab), 1), snapSlabSize))
		e.snapUsed = 0
	}
	s := &e.snapSlab[e.snapUsed]
	e.snapUsed++
	return s
}

// reserveSnapshots guarantees the next n publishes of the current
// generation carve from the current slab without allocating. Test hook
// for the allocation-count tests.
func (e *Engine) reserveSnapshots(n int) {
	if len(e.snapSlab)-e.snapUsed < n {
		e.snapSlab = make([]Snapshot, n)
		e.snapUsed = 0
	}
}

// publish installs a fresh snapshot reflecting the engine's current state.
// Called once at the end of every mutating entry point, after its unit
// settled and its swaps ran (batch.go). Only the writer calls publish, so
// plain reads of the live structures are safe here; the atomic store is
// what hands the result to readers.
//
// Cost: updates that did not move S reuse the previous arrays and carve
// the Snapshot struct from the current generation's slab (allocation-free
// apart from the slab's geometric growth). Updates that did move S (or
// grew N) compact the writer-side order (closing the holes orderRemove
// left), clone it and the dirty membership pages (flat memcpys of |S|
// ids, |S| slice headers and the touched pages), share the member
// slices, which the engine never mutates in place (installClique
// allocates fresh ones), and start a new one-slot slab. Every mutating
// entry point ends here, so WriteCheckpoint and Verify never see a hole.
func (e *Engine) publish() {
	e.compactOrder()
	prev := e.snap.Load()
	n, m := e.g.N(), e.g.M()
	reuse := prev != nil && prev.sgen == e.sgen && prev.n == n
	if !reuse {
		// New arrays start a new slab, so no slab spans two generations.
		e.snapSlab, e.snapUsed = nil, 0
	}
	s := e.nextSnapshot()
	*s = Snapshot{sgen: e.sgen, k: e.k, n: n, m: m, stats: e.stats, version: e.ver0 + 1}
	if prev != nil {
		s.version = prev.version + 1
	}
	s.schanged = s.version
	if prev != nil && prev.sgen == e.sgen {
		// S did not change (an AddNode may still force an array rebuild
		// below, but the clique set itself stands).
		s.schanged = prev.schanged
	}
	if reuse {
		// S did not change: reuse the immutable arrays, stamp new metadata.
		s.ids, s.cliques, s.nodePg = prev.ids, prev.cliques, prev.nodePg
	} else {
		s.ids = make([]int32, len(e.orderIds))
		copy(s.ids, e.orderIds)
		s.cliques = make([][]int32, len(e.orderCliques))
		copy(s.cliques, e.orderCliques)
		s.nodePg = e.syncNodePages(n)
	}
	e.snap.Store(s)
}

// syncNodePages brings the published membership pages up to date with the
// writer's flat nodeClique array and returns the new page table. Pages the
// updates since the last publish did not touch are shared with the
// previous table; dirty or new pages get a fresh copy. Published pages are
// never written again, so readers of older snapshots are undisturbed.
func (e *Engine) syncNodePages(n int) [][]int32 {
	np := (n + nodePageSize - 1) >> nodePageShift
	table := make([][]int32, np)
	copy(table, e.nodePages)
	for _, p := range e.nodeDirty {
		e.nodeDirtyB[p] = false
		if int(p) < np {
			table[p] = nil // force rebuild below
		}
	}
	e.nodeDirty = e.nodeDirty[:0]
	for i := range table {
		if table[i] != nil {
			continue
		}
		pg := make([]int32, nodePageSize)
		base := i << nodePageShift
		hi := base + nodePageSize
		if hi > n {
			hi = n
		}
		copy(pg, e.nodeClique[base:hi])
		table[i] = pg
	}
	e.nodePages = table
	return table
}

// markNodeDirty records that u's membership entry changed, so the next
// publish refreshes u's page.
func (e *Engine) markNodeDirty(u int32) {
	p := int(u) >> nodePageShift
	for p >= len(e.nodeDirtyB) {
		e.nodeDirtyB = append(e.nodeDirtyB, false)
	}
	if !e.nodeDirtyB[p] {
		e.nodeDirtyB[p] = true
		e.nodeDirty = append(e.nodeDirty, int32(p))
	}
}

// orderInstall appends a freshly installed clique to the writer-side
// publication order. Clique ids are allocated monotonically, so appending
// keeps the order sorted by id.
func (e *Engine) orderInstall(id int32, members []int32) {
	e.orderIds = append(e.orderIds, id)
	e.orderCliques = append(e.orderCliques, members)
	e.sgen++
}

// orderRemove drops a clique from the writer-side publication order. It
// leaves a hole (the id stays, the member slice becomes nil) that the
// next publish compacts, so a batch dissolving many cliques shifts the
// arrays once instead of once per clique.
func (e *Engine) orderRemove(id int32) {
	if pos, ok := slices.BinarySearch(e.orderIds, id); ok && e.orderCliques[pos] != nil {
		e.orderCliques[pos] = nil
		e.orderHoles++
	}
	e.sgen++
}

// compactOrder closes the holes orderRemove left, keeping the order.
func (e *Engine) compactOrder() {
	if e.orderHoles == 0 {
		return
	}
	w := 0
	for i, c := range e.orderCliques {
		if c != nil {
			e.orderIds[w], e.orderCliques[w] = e.orderIds[i], c
			w++
		}
	}
	clear(e.orderCliques[w:])
	e.orderIds, e.orderCliques = e.orderIds[:w], e.orderCliques[:w]
	e.orderHoles = 0
}
