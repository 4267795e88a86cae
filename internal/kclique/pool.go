package kclique

import "sync"

// Scratch pooling. Every enumeration-heavy layer — the static counting
// oracles, GC's clique listing, and the dynamic engine's batched candidate
// rebuilds — needs one Scratch per worker for the duration of a run. A
// run-local allocation is cheap once, but the serving layer issues
// thousands of short batched runs back to back; recycling scratches
// through one shared pool keeps their grown candidate levels and mark
// arrays warm across runs instead of rebuilding the high-water mark every
// time.

var scratchPool sync.Pool

// GetScratch returns a Scratch ready for searches up to depth k, drawing
// from the shared pool when possible. A pooled Scratch keeps the buffer
// capacities of its previous runs (candidate levels grow on demand, the
// mark array resizes in beginStamp), so repeated workloads converge to
// zero steady-state allocation. The caller owns the Scratch until
// PutScratch; it must not be shared between goroutines.
func GetScratch(k, maxOut int) *Scratch {
	if sc, ok := scratchPool.Get().(*Scratch); ok {
		sc.NoStamp = false
		return sc
	}
	return NewScratch(k, maxOut)
}

// PutScratch returns a Scratch to the shared pool. The caller must not
// use it afterwards.
func PutScratch(sc *Scratch) {
	if sc != nil {
		clear(sc.outs[:]) // a pooled Scratch must not keep a DAG alive
		scratchPool.Put(sc)
	}
}
