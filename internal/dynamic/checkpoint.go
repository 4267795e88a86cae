package dynamic

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/graph"
)

// Engine checkpoints. A checkpoint is the engine's one image format: the
// durable half of the serving layer's WAL + checkpoint protocol, the
// install a follower loads, and the save file of the public Dynamic. It
// captures everything recovery needs to rebuild a byte-identical engine —
// the graph topology, the result set S *with its internal clique ids*,
// the id allocator position, and the published snapshot version — and
// deliberately omits everything that is a pure function of that state
// (the candidate index, rebuilt by Algorithm 5 on load) or that is
// activity accounting (Stats).
//
// WriteCheckpoint/LoadCheckpoint preserve identity: replaying the same
// update stream against a loaded checkpoint reproduces the exact clique
// ids, snapshot versions, and swap decisions of the original engine. The
// loaded index holds the same candidates in a different list order, and
// no decision reads that order: swap ties break by member list (see
// greedyDisjoint).
var checkpointMagic = [8]byte{'D', 'K', 'C', 'Q', 'C', 'K', 'P', '1'}

// graphBinarySize returns the exact byte length of graph.WriteBinary's
// output for g, so the checkpoint can length-prefix the embedded graph and
// the loader can hand ReadBinary a bounded reader (its internal buffering
// must not consume bytes that belong to the clique records after it).
func graphBinarySize(g *graph.Graph) int64 {
	return 8 + 8 + 8*int64(g.N()+1) + 4*int64(2*g.M())
}

// WriteCheckpoint serialises the engine's durable state: header, graph
// (the binary CSR format of internal/graph), then S as (id, members)
// records in ascending id order. Everything is appended straight into
// the buffered writer's buffer, so the cost is one pass over the state
// and no per-record allocation.
func (e *Engine) WriteCheckpoint(w io.Writer) error {
	bw := bufio.NewWriter(w)
	gs := e.g.Snapshot()
	var version uint64
	if s := e.snap.Load(); s != nil {
		version = s.version
	}
	b := append(bw.AvailableBuffer(), checkpointMagic[:]...)
	for _, v := range [...]int64{
		int64(e.k),
		int64(version),
		int64(e.nextClique),
		int64(len(e.orderIds)),
		graphBinarySize(gs),
	} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	if _, err := bw.Write(b); err != nil {
		return err
	}
	if err := graph.WriteBinary(bw, gs); err != nil {
		return err
	}
	rec := 4 * (1 + e.k)
	for i := 0; i < len(e.orderIds); {
		if bw.Available() < rec {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		b := bw.AvailableBuffer()
		for ; i < len(e.orderIds) && cap(b)-len(b) >= rec; i++ {
			b = binary.LittleEndian.AppendUint32(b, uint32(e.orderIds[i]))
			for _, u := range e.orderCliques[i] {
				b = binary.LittleEndian.AppendUint32(b, uint32(u))
			}
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LoadCheckpoint rebuilds an engine from a WriteCheckpoint stream:
// restore the graph and S (with the persisted clique ids and allocator
// position), then reconstruct the candidate index with Algorithm 5. The
// loaded engine publishes its first snapshot at the persisted version, so
// readers of a recovered service observe a continuous version sequence.
// workers bounds the index-construction parallelism as in NewWorkers.
func LoadCheckpoint(r io.Reader, workers int) (*Engine, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("dynamic: checkpoint header: %w", err)
	}
	if magic != checkpointMagic {
		return nil, fmt.Errorf("dynamic: not a dkclique checkpoint (magic %q)", magic)
	}
	var k, version, nextClique, ns, glen int64
	for _, p := range []*int64{&k, &version, &nextClique, &ns, &glen} {
		if err := binary.Read(br, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("dynamic: checkpoint header: %w", err)
		}
	}
	if k < 3 || version < 1 || nextClique < 0 || nextClique > math.MaxInt32 || ns < 0 || ns > nextClique || glen < 16 {
		return nil, fmt.Errorf("dynamic: corrupt checkpoint header (k=%d ver=%d next=%d |S|=%d glen=%d)",
			k, version, nextClique, ns, glen)
	}
	// ReadBinary buffers internally; the length prefix keeps it from
	// swallowing the clique records that follow the graph.
	g, err := graph.ReadBinary(io.LimitReader(br, glen))
	if err != nil {
		return nil, fmt.Errorf("dynamic: checkpoint graph: %w", err)
	}
	// Everything below is sized by k, so bound it by the graph first; and
	// ns*k could wrap, so compare ns with N/k instead.
	if n := int64(g.N()); k > n || ns > n/k {
		return nil, fmt.Errorf("dynamic: checkpoint holds %d cliques of size %d over %d nodes", ns, k, g.N())
	}
	// Completing a non-maximal S below installs up to N/k cliques, and
	// their ids must not wrap past the int32 range.
	if nextClique > math.MaxInt32-int64(g.N())/k {
		return nil, fmt.Errorf("dynamic: checkpoint's next clique id %d leaves no room for %d nodes", nextClique, g.N())
	}
	e := newEngineShell(graph.DynamicFrom(g), int(k), workers)
	prev := int32(-1)
	for i := int64(0); i < ns; i++ {
		var id int32
		if err := binary.Read(br, binary.LittleEndian, &id); err != nil {
			return nil, fmt.Errorf("dynamic: checkpoint clique %d: %w", i, err)
		}
		members := make([]int32, k)
		if err := binary.Read(br, binary.LittleEndian, members); err != nil {
			return nil, fmt.Errorf("dynamic: checkpoint clique %d: %w", i, err)
		}
		if id <= prev || int64(id) >= nextClique {
			return nil, fmt.Errorf("dynamic: checkpoint clique ids not ascending below %d (got %d after %d)",
				nextClique, id, prev)
		}
		prev = id
		for _, u := range members {
			if u < 0 || int(u) >= g.N() {
				return nil, fmt.Errorf("dynamic: checkpoint clique %d holds out-of-range node %d", i, u)
			}
		}
		if !e.g.IsClique(members) {
			return nil, fmt.Errorf("dynamic: checkpoint members %v are not a clique", members)
		}
		for j, u := range members {
			if j > 0 && members[j-1] >= u {
				return nil, fmt.Errorf("dynamic: checkpoint clique %d members not sorted", i)
			}
			if e.nodeClique[u] != free {
				return nil, fmt.Errorf("dynamic: checkpoint node %d in two cliques", u)
			}
			e.nodeClique[u] = id
		}
		e.cliques[id] = members
		e.orderInstall(id, members)
	}
	e.nextClique = int32(nextClique)
	// S is maximal at every checkpoint boundary (engine invariant 2), so
	// this is a pure re-check; it repairs the set if a hand-edited file
	// slipped a non-maximal S through the validations above.
	e.completeMaximal(g)
	e.buildIndex()
	e.ver0 = uint64(version) - 1
	e.publish()
	return e, nil
}

// CanonicalizeIndex rebuilds the candidate index from scratch, keeping
// the capacity of its arrays, so each owner's candidates take the
// Algorithm-5 order, (owner, sorted members), that LoadCheckpoint
// produces. The indexed candidate *set* is unchanged (the index is a
// pure function of graph and S) — only the list order moves, and no
// decision reads it. Stats are preserved; nothing is published.
//
// Nothing in the serving stack calls it: the benchmark's dynamic.canon_ms
// row still times it, and the next change to the benchmark retires both.
func (e *Engine) CanonicalizeIndex() {
	st := e.stats
	e.index.reset()
	e.buildIndex()
	e.stats = st
}
