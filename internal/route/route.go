// Package route computes routing rules for TopoOpt fabrics: the modified
// coin-change routing over the AllReduce sub-topology (Algorithm 4 /
// Appendix E.1 of the paper) and the routing table that holds them and
// the MP paths core.TopologyFinder picks over the combined topology
// (Algorithm 1, line 20).
//
// Coin-change routing treats the selected ring generation rules p1..pd as
// coin denominations in the cyclic group Z_n: the hop sequence from server
// i to server j is a minimum-length decomposition of (j-i) mod n into
// coins, each coin c corresponding to one direct "+c" ring link.
package route

import (
	"fmt"

	"topoopt/internal/graph"
)

// CoinChange holds per-distance minimal coin decompositions for a cluster
// of n servers whose AllReduce sub-topology consists of the "+p" rings for
// the given coins.
type CoinChange struct {
	n     int
	coins []int
	// seq[d] is the coin sequence whose sum ≡ d (mod n), for d in 1..n-1.
	// seq[0] is nil.
	seq [][]int
}

// NewCoinChange runs the modified coin-change dynamic program
// (CoinChangeMod, Algorithm 4). Rings are directed, so every coin is one
// forward "+c" hop. Returns an error if some distance is unreachable
// (cannot happen when any coin is coprime with n, but guards against
// degenerate inputs).
func NewCoinChange(n int, coins []int) (*CoinChange, error) {
	if n < 2 {
		return nil, fmt.Errorf("route: cluster size %d too small", n)
	}
	set := make(map[int]bool)
	var cs []int
	for _, c := range coins {
		c = ((c % n) + n) % n
		if c == 0 || set[c] {
			continue
		}
		set[c] = true
		cs = append(cs, c)
	}
	if len(cs) == 0 {
		return nil, fmt.Errorf("route: no usable coins for n=%d", n)
	}
	const inf = int(^uint(0) >> 1)
	dist := make([]int, n)
	back := make([]int, n) // last coin used to reach distance d
	for i := 1; i < n; i++ {
		dist[i] = inf
		back[i] = -1
	}
	for _, c := range cs {
		if dist[c] > 1 {
			dist[c] = 1
			back[c] = c
		}
	}
	// Bellman-Ford-style relaxation over Z_n; at most n rounds.
	for round := 0; round < n; round++ {
		changed := false
		for d := 1; d < n; d++ {
			for _, c := range cs {
				prev := ((d-c)%n + n) % n
				if prev == 0 {
					continue // handled by the seeding above
				}
				if dist[prev] != inf && dist[prev]+1 < dist[d] {
					dist[d] = dist[prev] + 1
					back[d] = c
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	cc := &CoinChange{n: n, coins: cs, seq: make([][]int, n)}
	for d := 1; d < n; d++ {
		if dist[d] == inf {
			return nil, fmt.Errorf("route: distance %d unreachable with coins %v (n=%d)", d, coins, n)
		}
		var s []int
		for at := d; at != 0; {
			c := back[at]
			s = append(s, c)
			at = ((at-c)%n + n) % n
		}
		cc.seq[d] = s
	}
	return cc, nil
}

// Route returns the node sequence src, …, dst using coin hops. Every
// consecutive pair differs by a coin value (mod n), i.e. follows a direct
// ring link of the AllReduce sub-topology.
func (cc *CoinChange) Route(src, dst int) []int {
	d := ((dst-src)%cc.n + cc.n) % cc.n
	nodes := []int{src}
	at := src
	for _, c := range cc.seq[d] {
		at = (at + c) % cc.n
		nodes = append(nodes, at)
	}
	return nodes
}

// MaxHops returns the maximum number of hops over all distances — the
// diameter of the AllReduce sub-topology under coin routing. Theorem 1
// bounds this by O(d·n^(1/d)) when coins follow a geometric sequence.
func (cc *CoinChange) MaxHops() int {
	max := 0
	for d := 1; d < cc.n; d++ {
		if len(cc.seq[d]) > max {
			max = len(cc.seq[d])
		}
	}
	return max
}

// Table holds one node path (inclusive of both endpoints) per ordered
// node pair, at index src*n+dst: the one layout routes and link loads
// share. A nil entry means "no route computed"; same-node lookups return
// single-element paths.
type Table struct {
	n     int
	paths [][]int
}

// NewTable returns an empty routing table for n nodes.
func NewTable(n int) *Table {
	return &Table{n: n, paths: make([][]int, n*n)}
}

// Set installs the node path for (src, dst). The path must start at src
// and end at dst.
func (t *Table) Set(src, dst int, nodes []int) {
	if len(nodes) == 0 || nodes[0] != src || nodes[len(nodes)-1] != dst {
		panic(fmt.Sprintf("route: invalid path %v for %d->%d", nodes, src, dst))
	}
	t.paths[src*t.n+dst] = nodes
}

// Get returns the installed node path for (src, dst), or nil.
func (t *Table) Get(src, dst int) []int {
	if src == dst {
		return []int{src}
	}
	return t.paths[src*t.n+dst]
}

// N returns the node count the table was built for.
func (t *Table) N() int { return t.n }

// PairCount returns the number of (src,dst) pairs with installed routes.
func (t *Table) PairCount() int {
	c := 0
	for _, p := range t.paths {
		if p != nil {
			c++
		}
	}
	return c
}

// FillShortestPaths installs minimum-hop routes on g for every ordered pair
// not already present, each source's in one array filled from BFS parents.
func (t *Table) FillShortestPaths(g *graph.Graph) {
	for s := 0; s < t.n; s++ {
		dist, parent := g.BFS(s)
		row := t.paths[s*t.n : (s+1)*t.n]
		size := 0 // dist is 0 at s and -1 where unreachable
		for d, p := range row {
			if p == nil && dist[d] > 0 {
				size += dist[d] + 1
			}
		}
		buf := make([]int, size)
		for d := range row {
			if row[d] != nil || dist[d] <= 0 {
				continue
			}
			hops := dist[d]
			nodes := buf[: hops+1 : hops+1]
			buf = buf[hops+1:]
			for v, i := d, hops; i > 0; i-- {
				nodes[i] = v
				v = g.Edge(parent[v]).From
			}
			nodes[0] = s
			row[d] = nodes
		}
	}
}

// LinkLoads routes the traffic matrix tm (bytes, tm[s][d]) over the table
// and adds each directed link's bytes into loads[from*n+to] (len n*n).
// Multi-hop routes charge every traversed link — this is exactly the
// "bandwidth tax" of host-based forwarding (§5.4).
func (t *Table) LinkLoads(tm [][]int64, loads []int64) {
	for s := range tm {
		for d, bytes := range tm[s] {
			if bytes != 0 {
				t.AddLoad(loads, s, d, bytes)
			}
		}
	}
}

// AddLoad adds bytes to loads[from*n+to] for every link of the installed
// route for (src, dst); an unrouted pair, or src == dst, adds nothing.
func (t *Table) AddLoad(loads []int64, src, dst int, bytes int64) {
	nodes := t.paths[src*t.n+dst]
	for i := 0; i+1 < len(nodes); i++ {
		loads[nodes[i]*t.n+nodes[i+1]] += bytes
	}
}

// BandwidthTax returns the ratio of routed traffic volume (including
// forwarded hops) to the logical demand volume for the given traffic
// matrix. A full-bisection switch has tax exactly 1 (§5.4).
func (t *Table) BandwidthTax(tm [][]int64) float64 {
	var logical, routed int64
	for s := range tm {
		for d, bytes := range tm[s] {
			if bytes == 0 || s == d {
				continue
			}
			nodes := t.Get(s, d)
			if nodes == nil {
				continue
			}
			logical += bytes
			routed += bytes * int64(len(nodes)-1)
		}
	}
	if logical == 0 {
		return 1
	}
	return float64(routed) / float64(logical)
}
