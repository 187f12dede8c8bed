package graph

import (
	"fmt"
	"math/rand"
)

// StreamEdge is one element of a graph stream: an edge together with the
// labels of its endpoints. An online graph is "a (possibly infinite)
// sequence of edges which are being added to a graph G over time" (§1.3);
// labels travel with the edge because a streaming consumer may see a vertex
// for the first time inside an edge.
type StreamEdge struct {
	U, V   VertexID
	LU, LV Label
}

// Edge returns the bare endpoint pair of s.
func (s StreamEdge) Edge() Edge { return Edge{s.U, s.V} }

func (s StreamEdge) String() string {
	return fmt.Sprintf("%d:%s-%d:%s", s.U, s.LU, s.V, s.LV)
}

// Stream is a finite, materialised graph stream. The evaluation streams
// graphs "from disk in one of three predefined orders" (§5.1); a Stream is
// the in-memory equivalent, and cmd/loom-gen + dataset.ReadEdgeList provide
// the on-disk form.
type Stream []StreamEdge

// StreamOrder names one of the paper's three stream orderings (§5.1).
type StreamOrder string

const (
	// OrderOriginal preserves the graph's insertion order (used as the
	// base which Random permutes, and useful for datasets whose natural
	// order is meaningful, e.g. timestamped updates).
	OrderOriginal StreamOrder = "original"
	// OrderBFS emits edges in the order discovered by a breadth-first
	// search across all connected components.
	OrderBFS StreamOrder = "bfs"
	// OrderDFS emits edges in the order discovered by a depth-first
	// search across all connected components.
	OrderDFS StreamOrder = "dfs"
	// OrderRandom emits edges in a uniformly random permutation, the
	// "pseudo adversarial" ordering (§1.2).
	OrderRandom StreamOrder = "random"
)

// Orders lists the stream orderings used in the paper's evaluation.
func Orders() []StreamOrder { return []StreamOrder{OrderRandom, OrderBFS, OrderDFS} }

// StreamOf materialises g's edges as a stream in the requested order. The
// rng is used only by OrderRandom (and to pick deterministic tie-breaks is
// unnecessary: traversal orders follow adjacency insertion order, which the
// Graph preserves). A nil rng with OrderRandom panics.
func StreamOf(g *Graph, order StreamOrder, rng *rand.Rand) Stream {
	var edges []Edge
	switch order {
	case OrderOriginal:
		edges = g.Edges()
	case OrderBFS:
		edges = bfsEdges(g)
	case OrderDFS:
		edges = dfsEdges(g)
	case OrderRandom:
		if rng == nil {
			panic("graph: OrderRandom requires a rand source")
		}
		edges = g.Edges()
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	default:
		panic(fmt.Sprintf("graph: unknown stream order %q", order))
	}
	s := make(Stream, len(edges))
	for i, e := range edges {
		lu, lv := g.EdgeLabels(e)
		s[i] = StreamEdge{U: e.U, V: e.V, LU: lu, LV: lv}
	}
	return s
}

// bfsEdges returns g's edges in breadth-first discovery order, visiting
// every connected component (roots in vertex insertion order). Each edge is
// emitted exactly once, when first seen from either endpoint.
func bfsEdges(g *Graph) []Edge {
	seen := make(map[Edge]struct{}, g.NumEdges())
	visited := make(map[VertexID]struct{}, g.NumVertices())
	out := make([]Edge, 0, g.NumEdges())

	for _, root := range g.Vertices() {
		if _, ok := visited[root]; ok {
			continue
		}
		visited[root] = struct{}{}
		queue := []VertexID{root}
		var ns []VertexID
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			ns = g.Neighbors(u, ns[:0])
			for _, v := range ns {
				k := Edge{u, v}.Norm()
				if _, dup := seen[k]; !dup {
					seen[k] = struct{}{}
					out = append(out, k)
				}
				if _, ok := visited[v]; !ok {
					visited[v] = struct{}{}
					queue = append(queue, v)
				}
			}
		}
	}
	return out
}

// dfsEdges returns g's edges in depth-first discovery order across all
// components. Iterative to tolerate deep graphs (e.g. provenance chains).
func dfsEdges(g *Graph) []Edge {
	seen := make(map[Edge]struct{}, g.NumEdges())
	visited := make(map[VertexID]struct{}, g.NumVertices())
	out := make([]Edge, 0, g.NumEdges())

	for _, root := range g.Vertices() {
		if _, ok := visited[root]; ok {
			continue
		}
		stack := []VertexID{root}
		var ns []VertexID
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, ok := visited[u]; ok {
				// Still emit any unseen edges from u so every edge
				// appears exactly once even when u was reached twice.
				ns = g.Neighbors(u, ns[:0])
				for _, v := range ns {
					k := Edge{u, v}.Norm()
					if _, dup := seen[k]; !dup {
						seen[k] = struct{}{}
						out = append(out, k)
					}
				}
				continue
			}
			visited[u] = struct{}{}
			// Push neighbours in reverse so traversal follows
			// adjacency insertion order.
			ns = g.Neighbors(u, ns[:0])
			for i := len(ns) - 1; i >= 0; i-- {
				v := ns[i]
				k := Edge{u, v}.Norm()
				if _, dup := seen[k]; !dup {
					seen[k] = struct{}{}
					out = append(out, k)
				}
				if _, ok := visited[v]; !ok {
					stack = append(stack, v)
				}
			}
		}
	}
	return out
}

// BuildGraph replays a stream into a fresh undirected graph, ignoring
// duplicate edges and self-loops. It is the inverse of StreamOf up to edge
// order and is used by tests and the workload executor.
func BuildGraph(s Stream) (*Graph, error) {
	g := New()
	for _, se := range s {
		if _, err := g.EnsureEdge(se.U, se.LU, se.V, se.LV); err != nil {
			return nil, err
		}
	}
	return g, nil
}
