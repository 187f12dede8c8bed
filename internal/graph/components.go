package graph

// ConnectedComponents returns the vertex sets of g's connected components.
// Components are returned in order of their first-inserted vertex, and
// vertices within a component in discovery (BFS) order, so the result is
// deterministic.
func ConnectedComponents(g *Graph) [][]VertexID {
	visited := make(map[VertexID]struct{}, g.NumVertices())
	var comps [][]VertexID
	for _, root := range g.Vertices() {
		if _, ok := visited[root]; ok {
			continue
		}
		visited[root] = struct{}{}
		comp := []VertexID{root}
		queue := []VertexID{root}
		var ns []VertexID
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			ns = g.Neighbors(u, ns[:0])
			for _, v := range ns {
				if _, ok := visited[v]; ok {
					continue
				}
				visited[v] = struct{}{}
				comp = append(comp, v)
				queue = append(queue, v)
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether g has at most one connected component.
func IsConnected(g *Graph) bool {
	return len(ConnectedComponents(g)) <= 1
}

// InducedSubgraph returns the subgraph of g induced by the given edge set:
// exactly those edges, plus their endpoints with labels copied from g.
// This is the "treating E1 as a sub-graph" operation from §3/§4: motif
// matches are edge sets and are frequently handled as graphs.
func InducedSubgraph(g *Graph, edges []Edge) *Graph {
	sub := New()
	for _, e := range edges {
		lu := g.MustLabel(e.U)
		lv := g.MustLabel(e.V)
		// Errors are impossible: labels come from g itself and
		// duplicates are tolerated by EnsureEdge.
		if _, err := sub.EnsureEdge(e.U, lu, e.V, lv); err != nil {
			panic(err)
		}
	}
	return sub
}
