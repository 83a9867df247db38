// Package graph provides the undirected simple-graph substrate used by all
// (k,r)-core algorithms: an immutable adjacency-list graph, a builder that
// deduplicates edges, induced subgraphs, connected components and breadth
// first traversals.
//
// Vertices are dense integers 0..N-1 stored as int32; every algorithm in
// this repository works on vertex identifiers, attributes live in
// package attr.
package graph

import (
	"fmt"
	"sort"
)

// Graph is an immutable undirected simple graph with vertices 0..N-1.
// Neighbor lists are sorted ascending and contain no duplicates or
// self-loops. The zero value is an empty graph with no vertices.
type Graph struct {
	adj [][]int32
	m   int
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Degree returns the number of neighbors of u.
func (g *Graph) Degree(u int32) int { return len(g.adj[u]) }

// Neighbors returns the sorted neighbor list of u. The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) Neighbors(u int32) []int32 { return g.adj[u] }

// HasEdge reports whether the edge (u,v) exists. It runs in
// O(log deg(u)) time.
func (g *Graph) HasEdge(u, v int32) bool {
	nb := g.adj[u]
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= v })
	return i < len(nb) && nb[i] == v
}

// MaxDegree returns the maximum vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, nb := range g.adj {
		if len(nb) > max {
			max = len(nb)
		}
	}
	return max
}

// AvgDegree returns the average vertex degree (2M/N), or 0 for an empty
// graph.
func (g *Graph) AvgDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(len(g.adj))
}

// Edges calls fn once for every undirected edge with u < v, ordered by
// u and then v, ascending. Edge i of a graph is the i-th edge of this
// order (see KeepEdges).
func (g *Graph) Edges(fn func(u, v int32)) {
	for u, nb := range g.adj {
		for _, v := range nb {
			if int32(u) < v {
				fn(int32(u), v)
			}
		}
	}
}

// Builder accumulates edges for a Graph. Duplicate edges and self-loops
// are silently dropped at Build time.
type Builder struct {
	n     int
	edges [][2]int32
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the undirected edge (u,v). It panics if either endpoint
// is out of range.
func (b *Builder) AddEdge(u, v int32) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	b.edges = append(b.edges, [2]int32{u, v})
}

// Build constructs the immutable Graph. The builder can be reused
// afterwards but retains its edges.
func (b *Builder) Build() *Graph {
	deg := make([]int, b.n)
	for _, e := range b.edges {
		if e[0] == e[1] {
			continue
		}
		deg[e[0]]++
		deg[e[1]]++
	}
	adj := make([][]int32, b.n)
	for u := range adj {
		adj[u] = make([]int32, 0, deg[u])
	}
	for _, e := range b.edges {
		if e[0] == e[1] {
			continue
		}
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	m := 0
	for u := range adj {
		nb := adj[u]
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
		// Deduplicate in place.
		w := 0
		for i, v := range nb {
			if i > 0 && v == nb[i-1] {
				continue
			}
			nb[w] = v
			w++
		}
		adj[u] = nb[:w]
		m += w
	}
	return &Graph{adj: adj, m: m / 2}
}

// FromAdjacency wraps pre-built adjacency lists into a Graph. Each list
// must already be sorted, deduplicated, loop-free and symmetric; this is
// only checked lazily by algorithms, so callers in this module must
// guarantee it. Intended for internal fast paths.
func FromAdjacency(adj [][]int32) *Graph {
	m := 0
	for _, nb := range adj {
		m += len(nb)
	}
	return &Graph{adj: adj, m: m / 2}
}

// FilterEdges returns a new graph on the same vertex set containing only
// the edges for which keep returns true. keep is called once per edge
// with u < v, in Edges order.
func (g *Graph) FilterEdges(keep func(u, v int32) bool) *Graph {
	mask := make([]bool, 0, g.m)
	g.Edges(func(u, v int32) { mask = append(mask, keep(u, v)) })
	return g.KeepEdges(mask)
}

// KeepEdges returns a new graph on the same vertex set containing the
// edges whose position i in Edges order has keep[i] set; len(keep) must
// be M. The adjacency lists share one exactly-sized backing array.
func (g *Graph) KeepEdges(keep []bool) *Graph {
	if len(keep) != g.m {
		panic(fmt.Sprintf("graph: KeepEdges mask has %d entries for %d edges", len(keep), g.m))
	}
	deg := make([]int32, len(g.adj))
	m, i := 0, 0
	for u, nb := range g.adj {
		for _, v := range nb {
			if int32(u) < v {
				if keep[i] {
					deg[u]++
					deg[v]++
					m++
				}
				i++
			}
		}
	}
	backing := make([]int32, 2*m)
	adj := make([][]int32, len(g.adj))
	off := int32(0)
	for u := range adj {
		adj[u] = backing[off : off : off+deg[u]]
		off += deg[u]
	}
	// Vertices are visited ascending, so every list receives its
	// backward neighbours (pushed while earlier vertices were visited)
	// in ascending order before its own forward ones: sorted, no sort.
	i = 0
	for u, nb := range g.adj {
		for _, v := range nb {
			if int32(u) < v {
				if keep[i] {
					adj[u] = append(adj[u], v)
					adj[v] = append(adj[v], int32(u))
				}
				i++
			}
		}
	}
	return &Graph{adj: adj, m: m}
}

// Induced returns the subgraph induced by vertices (global ids, strictly
// ascending), with local ids 0..len(vertices)-1 assigned in that order,
// plus the local-to-global mapping (a copy of vertices). Neighbour
// lists ascend, so every induced row ascends too; the rows share one
// backing array sized by a count pass. It panics when vertices does not
// ascend strictly.
//
// local is scratch of length N, all zero: Induced stores local id + 1
// there for each of vertices and zeroes those entries again before it
// returns, so one slice serves every component of a graph.
func (g *Graph) Induced(vertices, local []int32) (*Graph, []int32) {
	for i := 1; i < len(vertices); i++ {
		if vertices[i] <= vertices[i-1] {
			panic("graph: Induced: vertices not strictly ascending")
		}
	}
	for i, v := range vertices {
		local[v] = int32(i) + 1
	}
	total := 0
	for _, v := range vertices {
		for _, w := range g.adj[v] {
			if local[w] != 0 {
				total++
			}
		}
	}
	backing := make([]int32, 0, total)
	adj := make([][]int32, len(vertices))
	for i, v := range vertices {
		off := len(backing)
		for _, w := range g.adj[v] {
			if l := local[w]; l != 0 {
				backing = append(backing, l-1)
			}
		}
		adj[i] = backing[off:len(backing):len(backing)]
	}
	for _, v := range vertices {
		local[v] = 0
	}
	orig := make([]int32, len(vertices))
	copy(orig, vertices)
	return &Graph{adj: adj, m: total / 2}, orig
}

// ComponentsOf returns the connected components of the subgraph induced
// by the given vertices (nil means all vertices). Each component is
// sorted ascending; isolated vertices form singleton components.
// Components are returned in order of their smallest vertex.
func (g *Graph) ComponentsOf(vertices []int32) [][]int32 {
	n := len(g.adj)
	inSet := make([]bool, n)
	if vertices == nil {
		for i := range inSet {
			inSet[i] = true
		}
	} else {
		for _, v := range vertices {
			inSet[v] = true
		}
	}
	visited := make([]bool, n)
	var comps [][]int32
	queue := make([]int32, 0, 64)
	for s := 0; s < n; s++ {
		if !inSet[s] || visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], int32(s))
		comp := []int32{int32(s)}
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.adj[u] {
				if inSet[v] && !visited[v] {
					visited[v] = true
					queue = append(queue, v)
					comp = append(comp, v)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, comp)
	}
	return comps
}

// IsConnectedSubset reports whether the subgraph induced by vertices is
// connected. The empty set is considered connected.
func (g *Graph) IsConnectedSubset(vertices []int32) bool {
	if len(vertices) <= 1 {
		return true
	}
	comps := g.ComponentsOf(vertices)
	return len(comps) == 1
}

// DegreeWithin returns the number of neighbors of u inside the given
// membership mask.
func (g *Graph) DegreeWithin(u int32, in []bool) int {
	d := 0
	for _, v := range g.adj[u] {
		if in[v] {
			d++
		}
	}
	return d
}
