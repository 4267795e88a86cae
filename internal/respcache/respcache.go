// Package respcache memoizes fully encoded response bodies against the
// MVCC snapshot version, shared by every transport that serves them.
// It exploits the read protocol underneath: a published snapshot is
// immutable forever and carries a monotone version counter, so
// (version, representation) fully determines an encoded body and a
// cached body can be handed to any number of concurrent readers without
// copying. The writer bumping the version on every publish is the whole
// invalidation story.
//
// The cache was carved out of internal/httpapi when the raw TCP
// transport (internal/framesrv) arrived: both front ends mount one
// Snapshot cache, so an HTTP reader and a TCP reader of the same
// snapshot version are answered from the same pre-encoded bytes — the
// encode cost is paid once per (version, representation) no matter how
// many transports or requests fan out of it. For the same reason it
// holds the one builder of the stats counter block both transports
// answer /stats with.
package respcache

import (
	"sync/atomic"

	"repro/internal/dynamic"
	"repro/internal/serve"
	"repro/internal/wire"
)

// versioned is one immutable pre-encoded response body. Never mutated
// after the pointer is published.
type versioned struct {
	version uint64
	body    []byte
}

// Body memoizes one response representation against the snapshot
// version. Safe for any number of concurrent readers; builds race
// benignly (the loser serves its own fresh bytes and the monotone-
// version CAS keeps a stale build from clobbering a newer one). The
// zero value is ready to use.
type Body struct {
	p atomic.Pointer[versioned]
}

// Get returns the cached body for version, building and installing it
// on a miss. build must return a fresh, never-reused slice: the result
// is shared with every concurrent and future reader of this version.
func (c *Body) Get(version uint64, build func() []byte) []byte {
	if v := c.p.Load(); v != nil && v.version == version {
		return v.body
	}
	nb := &versioned{version: version, body: build()}
	for {
		cur := c.p.Load()
		if cur != nil && cur.version >= version {
			// A concurrent reader cached this version (serve its copy) or a
			// newer one (keep it — our snapshot is already stale).
			if cur.version == version {
				return cur.body
			}
			return nb.body
		}
		if c.p.CompareAndSwap(cur, nb) {
			return nb.body
		}
	}
}

// Snapshot holds the four cached snapshot-body representations
// (JSON/binary × full/lean). One instance is shared across transports:
// cmd/dkserver builds one and mounts it in both the HTTP handler and
// the TCP frame server. The zero value is ready to use.
type Snapshot struct {
	JSONFull, JSONLean Body
	BinFull, BinLean   Body
}

// Binary returns the (cached) binary snapshot frame for snap, full or
// lean. This is the one definition of "the binary /snapshot body" —
// the HTTP content negotiation path and the TCP request loop both
// answer from it, so the two transports are byte-identical per version
// by construction.
func (c *Snapshot) Binary(snap *dynamic.Snapshot, lean bool) []byte {
	cache := &c.BinFull
	if lean {
		cache = &c.BinLean
	}
	return cache.Get(snap.Version(), func() []byte {
		var cliques [][]int32
		if !lean {
			cliques = snap.Cliques()
		}
		return wire.AppendSnapshotFrame(nil, snap.Version(), snap.K(), snap.N(), snap.M(),
			snap.Size(), cliques, !lean)
	})
}

// Stats builds the counter block of a stats response from a service's
// counters and the snapshot they are served with. Both transports encode
// their stats frames from it, and the JSON /stats body reads the same
// block, so the mapping of serve.Stats onto the response lives here
// once. Counters move without a version bump, so the block is built per
// request, never cached.
func Stats(snap *dynamic.Snapshot, st serve.Stats) wire.Stats {
	es := snap.Stats()
	return wire.Stats{
		Size: uint64(snap.Size()), Nodes: uint64(snap.N()), Edges: uint64(snap.M()),
		Enqueued: st.Enqueued, Applied: st.Applied, Changed: st.Changed,
		Batches: st.Batches, Flushes: st.Flushes,
		Recovered: st.Recovered, Checkpoints: st.Checkpoints,
		WALBatches: st.WALBatches, WALBytes: st.WALBytes,
		Insertions: uint64(es.Insertions), Deletions: uint64(es.Deletions),
		Swaps:             uint64(es.Swaps),
		IndexBuildUS:      uint64(es.IndexBuild.Microseconds()),
		QueueDepth:        st.QueueDepth,
		SnapshotAge:       st.SnapshotAge,
		WALSyncs:          st.WALSyncs,
		GroupCommitOps:    st.GroupCommitOps,
		CheckpointStallNs: st.CheckpointStallNs,
	}
}
