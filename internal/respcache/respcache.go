// Package respcache is the one read layer of the serving stack: every
// read response both transports answer is defined here once, so the
// HTTP handler (internal/httpapi) and the raw TCP frame server
// (internal/framesrv) agree byte for byte by construction.
//
// It holds three things:
//
//   - Body and Snapshot memoize fully encoded snapshot bodies against
//     the MVCC snapshot version. A published snapshot is immutable
//     forever and carries a monotone version counter, so (version,
//     representation) determines an encoded body, a cached body can be
//     handed to any number of concurrent readers without copying, and
//     the writer bumping the version on every publish is the whole
//     invalidation story. The encode cost is paid once per (version,
//     representation) however many transports or requests fan out of it.
//   - Clique and Cliques resolve point and batched lookups: the node
//     range check with its error text, and the batched lookup's clique
//     deduplication and per-node indices.
//   - statsBlock is the one table of stats counters. The stats frame
//     and the JSON /stats body are both built from it, so a new counter
//     is one table row (the compiler checks the block's length) and no
//     wire-format change.
package respcache

import (
	"fmt"
	"strconv"
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

// Clique resolves a point lookup against snap: the members of the
// clique covering u, nil when u is free, or the error both transports
// answer with status 400 when u is not a node of snap.
func Clique(snap *dynamic.Snapshot, u int32) ([]int32, error) {
	if u < 0 || int(u) >= snap.N() {
		return nil, fmt.Errorf("node %d out of range for %d nodes", u, snap.N())
	}
	return snap.CliqueOf(u), nil
}

// Cliques resolves a batched lookup of nodes against snap. cliques lists
// each clique a queried node belongs to once, in order of first
// reference, and is nil when every node is free; lookups holds one entry
// per queried node, its index in cliques or -1 when the node is free. It
// fails with Clique's error at the first node outside snap.
func Cliques(snap *dynamic.Snapshot, nodes []int32) (cliques [][]int32, lookups []wire.Lookup, err error) {
	lookups = make([]wire.Lookup, len(nodes))
	// Cliques are disjoint, so a clique's smallest member is a unique
	// key: it maps to the clique's index in cliques.
	var seen map[int32]int32
	for i, u := range nodes {
		c, err := Clique(snap, u)
		if err != nil {
			return nil, nil, err
		}
		idx := int32(-1)
		if c != nil {
			if seen == nil {
				// Sized for the batch: no more cliques than nodes.
				cliques = make([][]int32, 0, len(nodes))
				seen = make(map[int32]int32, len(nodes))
			}
			var ok bool
			if idx, ok = seen[c[0]]; !ok {
				idx = int32(len(cliques))
				cliques = append(cliques, c)
				seen[c[0]] = idx
			}
		}
		lookups[i] = wire.Lookup{Node: u, Clique: idx}
	}
	return cliques, lookups, nil
}

// statsBlock is the one table of stats counters: the service's counters
// (svc), the engine's (read once from snap) and the snapshot's own. The
// stats frame carries them in this order under these names, and the JSON
// /stats body is "version" followed by the same names and values.
// QueueDepth and SnapshotAge are gauges; every other counter is
// cumulative. Counters move without a version bump, so blocks are built
// per request, never cached. The block is an array, so building one
// allocates nothing, and the compiler checks the row count against it.
func statsBlock(snap *dynamic.Snapshot, svc serve.Stats) [21]wire.Counter {
	eng := snap.Stats()
	return [...]wire.Counter{
		{Name: "size", Value: uint64(snap.Size())},
		{Name: "nodes", Value: uint64(snap.N())},
		{Name: "edges", Value: uint64(snap.M())},
		{Name: "enqueued", Value: svc.Enqueued},
		{Name: "applied", Value: svc.Applied},
		{Name: "changed", Value: svc.Changed},
		{Name: "batches", Value: svc.Batches},
		{Name: "flushes", Value: svc.Flushes},
		{Name: "recovered", Value: svc.Recovered},
		{Name: "checkpoints", Value: svc.Checkpoints},
		{Name: "wal_batches", Value: svc.WALBatches},
		{Name: "wal_bytes", Value: svc.WALBytes},
		{Name: "insertions", Value: uint64(eng.Insertions)},
		{Name: "deletions", Value: uint64(eng.Deletions)},
		{Name: "swaps", Value: uint64(eng.Swaps)},
		{Name: "index_build_us", Value: uint64(eng.IndexBuild.Microseconds())},
		{Name: "queue_depth", Value: svc.QueueDepth},
		{Name: "snapshot_age", Value: svc.SnapshotAge},
		{Name: "wal_syncs", Value: svc.WALSyncs},
		{Name: "group_commit_ops", Value: svc.GroupCommitOps},
		{Name: "checkpoint_stall_ns", Value: svc.CheckpointStallNs},
	}
}

// AppendStatsFrame appends the stats frame of snap and st to b.
func AppendStatsFrame(b []byte, snap *dynamic.Snapshot, st serve.Stats) []byte {
	block := statsBlock(snap, st)
	return wire.AppendStatsFrame(b, snap.Version(), block[:])
}

// AppendStatsJSON appends the JSON /stats body of snap and st to b:
// "version", then every counter as "name": value in table order.
// Counter names are plain identifiers, so they need no escaping.
func AppendStatsJSON(b []byte, snap *dynamic.Snapshot, st serve.Stats) []byte {
	b = append(b, `{"version":`...)
	b = strconv.AppendUint(b, snap.Version(), 10)
	for _, c := range statsBlock(snap, st) {
		b = append(b, ',', '"')
		b = append(b, c.Name...)
		b = append(b, '"', ':')
		b = strconv.AppendUint(b, c.Value, 10)
	}
	return append(b, "}\n"...)
}
