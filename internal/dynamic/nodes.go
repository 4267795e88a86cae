package dynamic

// Node updates. The paper (§V) treats node changes as batches of edge
// updates on the incident edges; these helpers package that pattern with
// stable node ids.

// AddNode appends a fresh isolated (and therefore free) node to the graph
// and returns its id. Connect it with InsertEdge calls.
func (e *Engine) AddNode() int32 {
	id := e.g.AddNode()
	e.nodeClique = append(e.nodeClique, free)
	e.index.byNode = append(e.index.byNode, candList{})
	e.markNodeDirty(id)
	e.publish()
	return id
}

// RemoveNode deletes every edge incident to u (Algorithm 7 per edge), so u
// ends isolated and free; the id remains valid. It returns the number of
// edges removed.
func (e *Engine) RemoveNode(u int32) int {
	removed := 0
	// Delete through the engine so S and the candidate index stay
	// consistent after every single removal. The flat rows are sorted, so
	// the smallest remaining neighbour is always the first entry.
	for {
		nb := e.g.Neighbors(u)
		if len(nb) == 0 {
			break
		}
		e.DeleteEdge(u, nb[0])
		removed++
	}
	return removed
}
