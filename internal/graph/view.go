package graph

// View is the substrate-neutral adjacency view the unified k-clique
// enumeration core (internal/kclique) runs on. A View presents a graph
// under an orientation that makes every k-clique reachable exactly once
// (each clique is rooted at the member all others point away from); N
// bounds the node-id space so the enumerator can size its epoch-stamped
// mark array. The marks themselves live in the per-worker
// kclique.Scratch, not in the view, so concurrent enumerations over one
// substrate never share mark state.
//
// Orientation comes in two disciplines, selected by IdOrdered:
//
//   - Explicit (IdOrdered() == false): Adj(u) returns only the
//     out-neighbours of u under some precomputed ordering (degeneracy,
//     degree, score ranks). The *DAG substrate works this way. Candidate
//     ids carry no orientation information, so the core must intersect
//     the full candidate set against Adj and may never prune
//     positionally.
//   - Ascending node id (IdOrdered() == true): Adj(u) returns the full
//     neighbour row and the orientation is the id order itself — the
//     core restricts successors to the candidates after u's position,
//     which is free (candidate sets are id-sorted slices). The mutable
//     Dynamic substrate works this way through DynView; handing the core
//     whole rows keeps the hot path free of per-visit suffix searches.
//
// Either way Adj rows are sorted ascending by node id, zero-copy, and
// read-only; for mutable substrates they are invalidated by the next
// mutation, exactly like Dynamic.Neighbors.
type View interface {
	// N returns the exclusive upper bound of node ids.
	N() int
	// Adj returns the sorted adjacency row enumeration may extend
	// through: the oriented out-row when IdOrdered is false, the full
	// neighbour row when it is true.
	Adj(u int32) []int32
	// IdOrdered reports which orientation discipline Adj follows.
	IdOrdered() bool
}

// Compile-time substrate checks.
var (
	_ View = (*DAG)(nil)
	_ View = DynView{}
)

// Adj returns the out-neighbours of u — the View accessor; identical to
// Out.
func (d *DAG) Adj(u int32) []int32 { return d.Out(u) }

// IdOrdered reports false: a DAG's orientation is its explicit Ordering,
// and out-rows already encode it.
func (d *DAG) IdOrdered() bool { return false }

// DynView adapts a Dynamic graph to the View interface under the
// ascending-node-id orientation: every k-clique of the current graph is
// rooted at its minimum-id member and enumerated exactly once, smallest
// ids first — the same orientation the dynamic engine's candidate
// enumerations always used.
//
// DynView is a value (one pointer wide, free to copy and to box into the
// View interface without allocating). It shares the Dynamic's rows, so a
// view obtained once stays current across mutations — but slices returned
// by Adj are invalidated by them. Reads through the view are safe
// concurrently only while no writer mutates the graph; the engine's
// single-writer discipline provides that.
type DynView struct{ d *Dynamic }

// View returns the id-oriented adjacency view of the graph.
func (d *Dynamic) View() DynView { return DynView{d} }

// N returns the number of nodes.
func (v DynView) N() int { return len(v.d.adj) }

// Adj returns u's full sorted neighbour row, zero-copy.
func (v DynView) Adj(u int32) []int32 { return v.d.adj[u] }

// IdOrdered reports true: successors of u are its neighbours with larger
// ids, which the enumeration core derives positionally from its id-sorted
// candidate sets.
func (v DynView) IdOrdered() bool { return true }
