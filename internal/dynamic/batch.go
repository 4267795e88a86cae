package dynamic

import (
	"slices"

	"repro/internal/graph"
)

// Maintenance units. Every mutation of S runs as one unit: InsertEdge and
// DeleteEdge are units of one op, ApplyBatch a unit of many, and each swap
// TrySwap executes (Algorithm 4) is a unit of its own. A unit applies the
// cheap structural part of Algorithms 6-7 eagerly — graph mutation, S
// maintenance, candidate drops, candidates through inserted edges, direct
// all-free installs — and records the nodes it freed, the cliques it
// installed and the owners to try swapping. settle then runs the
// enumeration-heavy part once for the whole unit: the maximality sweep
// when it can find something, the anchored refresh (anchor.go) of the
// cliques older than the unit through the freed nodes still free, and
// Algorithm 5's full enumeration of the cliques the unit installed that
// are still in S. What follows settle is TrySwap over the queued owners
// and one publish; a swap unit instead hands its owners back to the
// TrySwap queue it came from, so Algorithm 4's FIFO order holds.
//
// Ops in one unit coalesce: a node freed by twenty ops is enumerated
// through once, not twenty times, and a clique installed and dissolved
// within the unit is never enumerated at all. Every unit settles inline,
// on the caller's goroutine and the engine scratch; the worker pool runs
// only whole-index builds (buildIndex).
//
// The enumeration only computes the missing candidates (a pure function
// of graph, S and free status), which install in (owner, members) order
// — the cliques older than the unit first, then the ones it installed,
// in ascending id order.

// unit is the deferred work of the mutation in progress. It lives on the
// engine and its buffers are reused, so a unit allocates nothing once they
// have grown.
type unit struct {
	// before is the first clique id the unit can install: older cliques
	// are refreshed through the anchors, newer ones enumerated in full.
	before int32
	// freed holds the nodes the unit freed, with repeats. Any all-free
	// k-clique contains one of them (deletions never create cliques, and
	// insertions install their all-free cliques eagerly). Those still free
	// after the sweep are the anchors: every candidate an older clique
	// gained and the index lacks contains one of them.
	freed []int32
	// installed holds the cliques the unit installed, ascending. Clique ids
	// are never reused, so one that left S again is simply skipped.
	installed []int32
	// pending holds the owners that gained candidates through an inserted
	// edge, for TrySwap. settle reuses it for the whole queue.
	pending []int32
	// sweep records that a clique was dissolved while the unit already
	// held deferred work (see removeCliqueFromS). Only then can an
	// all-free clique survive the structural part, so only then does
	// settle sweep the freed nodes.
	sweep bool
}

// begin opens a unit.
func (e *Engine) begin() {
	un := &e.unit
	un.before = e.nextClique
	un.freed = un.freed[:0]
	un.installed = un.installed[:0]
	un.pending = un.pending[:0]
	un.sweep = false
}

// applyOne applies one op as a unit of its own, settled inline.
func (e *Engine) applyOne(op graph.Op) bool {
	e.begin()
	if !e.update(op) {
		return false
	}
	e.trySwap(e.settle())
	e.publish()
	return true
}

// ApplyBatch applies a stream of edge updates as one unit and returns how
// many of them changed the graph (an insert of an existing edge or a
// delete of a missing one counts as unchanged, exactly as InsertEdge /
// DeleteEdge report). The maintained set ends maximal and every index
// invariant holds on return, but intermediate states are internal —
// callers observing the engine mid-batch is not supported.
//
// The deferred enumeration runs once for the whole batch, on the
// caller's goroutine, so updates that interact coalesce: a node freed by
// twenty updates is enumerated through once, not twenty times. Swaps run
// once, after the whole batch, so the set can differ from applying the
// same ops one by one; it is maximal either way, and identical for every
// worker count.
func (e *Engine) ApplyBatch(ops []graph.Op) int {
	if len(ops) == 0 {
		return 0
	}
	e.begin()
	applied := 0
	for _, op := range ops {
		if e.update(op) {
			applied++
		}
	}
	e.stats.Batches++
	e.stats.BatchedOps += len(ops)
	e.trySwap(e.settle())
	// A batch of pure no-ops changed neither the graph nor S, so it
	// publishes no phantom version.
	if applied > 0 {
		e.publish()
	}
	return applied
}

// settle runs the deferred part of the open unit — sweep, anchored
// refresh, enumeration of the installed cliques — and returns the owners
// to try swapping, ascending and without repeats (some may have left S).
// The result lives in the unit and stays valid until the next unit
// begins.
func (e *Engine) settle() []int32 {
	un := &e.unit
	slices.Sort(un.freed)
	un.freed = slices.Compact(un.freed)
	if un.sweep {
		e.sweep(un.freed)
	}
	anchors := un.freed[:0]
	for _, w := range un.freed {
		if e.nodeClique[w] == free {
			anchors = append(anchors, w)
		}
	}
	owners := un.installed[:0]
	for _, id := range un.installed {
		if _, ok := e.cliques[id]; ok {
			owners = append(owners, id)
		}
	}
	queue := e.installRuns(e.collectRuns(anchors, owners), un.pending)
	slices.Sort(queue)
	un.pending = slices.Compact(queue)
	return un.pending
}

// sweep restores maximality after the structural part of a unit: every
// all-free k-clique contains a freed node, so scanning the free ones
// (sorted ascending) and installing the first clique found through each,
// repeatedly until none remains, re-establishes invariant 2. The
// installed cliques join the unit like any other.
func (e *Engine) sweep(freed []int32) {
	for i, u := range freed {
		for e.nodeClique[u] == free {
			B := e.freeNeighborhood(e.esc, freed[i:i+1])
			if len(B) < e.k {
				break
			}
			var found []int32
			e.forEachCliqueAmong(e.esc, B, func(c []int32) bool {
				if slices.Contains(c, u) {
					found = append([]int32(nil), c...)
					return false
				}
				return true
			})
			if found == nil {
				break
			}
			e.installClique(found)
		}
	}
}
