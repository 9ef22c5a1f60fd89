// Package graph provides the directed-multigraph substrate used by every
// other TopoOpt subsystem: adjacency bookkeeping with parallel links,
// unweighted and weighted shortest paths, Yen's k-shortest paths, diameter
// and connectivity queries, and Edmonds' blossom maximum-weight matching
// (used by TOPOLOGY FINDER to build the MP sub-topology).
//
// Nodes are dense integers 0..N-1 (server IDs). Edges are directed and may
// be parallel; physical fibers are duplex, so topology builders normally
// call AddDuplex. Each edge carries a capacity in bits/s, which the network
// simulator interprets as link bandwidth.
package graph

import (
	"fmt"
	"sort"
)

// Edge is a directed link of a Graph. ID is dense and unique per graph and
// identifies the physical (directional) link in the simulator.
type Edge struct {
	ID   int
	From int
	To   int
	Cap  float64 // capacity in bits/s
}

// Graph is a directed multigraph on nodes 0..N-1. The zero value is an
// empty graph with no nodes; use New to allocate one with n nodes.
type Graph struct {
	n     int
	edges []Edge
	out   [][]int // node -> edge IDs leaving it
	in    [][]int // node -> edge IDs entering it
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{
		n:   n,
		out: make([][]int, n),
		in:  make([][]int, n),
	}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of directed edges.
func (g *Graph) M() int { return len(g.edges) }

// AddEdge adds a directed edge from -> to with the given capacity and
// returns its ID. Self-loops are rejected because no TopoOpt fabric has
// them and they break path-length accounting.
func (g *Graph) AddEdge(from, to int, cap float64) int {
	if from == to {
		panic(fmt.Sprintf("graph: self-loop at node %d", from))
	}
	g.checkNode(from)
	g.checkNode(to)
	id := len(g.edges)
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Cap: cap})
	g.out[from] = append(g.out[from], id)
	g.in[to] = append(g.in[to], id)
	return id
}

// AddDuplex adds a pair of directed edges (a->b, b->a) modelling one duplex
// fiber, and returns both edge IDs.
func (g *Graph) AddDuplex(a, b int, cap float64) (int, int) {
	return g.AddEdge(a, b, cap), g.AddEdge(b, a, cap)
}

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// EdgeTo returns the head node of the edge with the given ID. It avoids
// copying the whole Edge struct on hot paths (netsim path resolution).
func (g *Graph) EdgeTo(id int) int { return g.edges[id].To }

// EdgeCap returns the capacity of the edge with the given ID.
func (g *Graph) EdgeCap(id int) float64 { return g.edges[id].Cap }

// Edges returns a copy of all edges.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// Out returns the IDs of edges leaving node v.
func (g *Graph) Out(v int) []int { g.checkNode(v); return g.out[v] }

// In returns the IDs of edges entering node v.
func (g *Graph) In(v int) []int { g.checkNode(v); return g.in[v] }

// OutDegree returns the number of edges leaving v.
func (g *Graph) OutDegree(v int) int { g.checkNode(v); return len(g.out[v]) }

// InDegree returns the number of edges entering v.
func (g *Graph) InDegree(v int) int { g.checkNode(v); return len(g.in[v]) }

// HasEdge reports whether at least one directed edge from -> to exists.
func (g *Graph) HasEdge(from, to int) bool {
	g.checkNode(from)
	g.checkNode(to)
	for _, id := range g.out[from] {
		if g.edges[id].To == to {
			return true
		}
	}
	return false
}

// Multiplicity returns the number of parallel directed edges from -> to.
func (g *Graph) Multiplicity(from, to int) int {
	g.checkNode(from)
	g.checkNode(to)
	m := 0
	for _, id := range g.out[from] {
		if g.edges[id].To == to {
			m++
		}
	}
	return m
}

// Neighbors returns the distinct nodes reachable from v by one edge, in
// ascending order.
func (g *Graph) Neighbors(v int) []int {
	g.checkNode(v)
	seen := make(map[int]bool)
	for _, id := range g.out[v] {
		seen[g.edges[id].To] = true
	}
	ns := make([]int, 0, len(seen))
	for u := range seen {
		ns = append(ns, u)
	}
	sort.Ints(ns)
	return ns
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.edges = make([]Edge, len(g.edges))
	copy(c.edges, g.edges)
	for v := 0; v < g.n; v++ {
		c.out[v] = append([]int(nil), g.out[v]...)
		c.in[v] = append([]int(nil), g.in[v]...)
	}
	return c
}

func (g *Graph) checkNode(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", v, g.n))
	}
}

// Path is a sequence of edge IDs forming a walk. Nodes traversed are
// implied by the edges.
type Path []int

// Nodes expands a path starting at src into the node sequence it visits.
func (p Path) Nodes(g *Graph, src int) []int {
	nodes := []int{src}
	at := src
	for _, id := range p {
		e := g.Edge(id)
		if e.From != at {
			panic(fmt.Sprintf("graph: broken path at edge %d (from %d, at %d)", id, e.From, at))
		}
		at = e.To
		nodes = append(nodes, at)
	}
	return nodes
}

// BFS computes unweighted hop distances from src to every node. Unreachable
// nodes get distance -1. parentEdge[v] is the edge used to first reach v
// (-1 for src and unreachable nodes).
func (g *Graph) BFS(src int) (dist []int, parentEdge []int) {
	g.checkNode(src)
	dist = make([]int, g.n)
	parentEdge = make([]int, g.n)
	for i := range dist {
		dist[i] = -1
		parentEdge[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, id := range g.out[v] {
			u := g.edges[id].To
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				parentEdge[u] = id
				queue = append(queue, u)
			}
		}
	}
	return dist, parentEdge
}

// ShortestPath returns a minimum-hop path from src to dst, or nil if dst is
// unreachable. An empty (non-nil) path is returned when src == dst.
func (g *Graph) ShortestPath(src, dst int) Path {
	g.checkNode(dst)
	if src == dst {
		return Path{}
	}
	dist, parent := g.BFS(src)
	if dist[dst] == -1 {
		return nil
	}
	var rev []int
	for v := dst; v != src; {
		id := parent[v]
		rev = append(rev, id)
		v = g.edges[id].From
	}
	p := make(Path, len(rev))
	for i := range rev {
		p[i] = rev[len(rev)-1-i]
	}
	return p
}

// Connected reports whether every node is reachable from node 0 following
// directed edges. For the duplex graphs TopoOpt builds this coincides with
// (weak and strong) connectivity.
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	dist, _ := g.BFS(0)
	for _, d := range dist {
		if d == -1 {
			return false
		}
	}
	return true
}

// Diameter returns the maximum finite hop distance over all node pairs and
// whether the graph is strongly connected. For a disconnected graph the
// returned diameter ignores unreachable pairs.
func (g *Graph) Diameter() (int, bool) {
	diam := 0
	connected := true
	for v := 0; v < g.n; v++ {
		dist, _ := g.BFS(v)
		for u, d := range dist {
			if u == v {
				continue
			}
			if d == -1 {
				connected = false
				continue
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam, connected
}
