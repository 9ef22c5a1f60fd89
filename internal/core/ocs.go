package core

import (
	"topoopt/internal/graph"
	"topoopt/internal/topo"
)

// DiscountFunc scales the utility of the l-th parallel link between a node
// pair (Equation 1/2 of Appendix E.4).
type DiscountFunc func(l int) float64

// ExponentialDiscount is the paper's default: the l-th parallel link is
// worth 2^-l of the demand (Σ_{x=1..l} 2^-x over all allocated links).
func ExponentialDiscount(l int) float64 {
	return 1.0 / float64(int64(1)<<uint(l))
}

// UnitDiscount gives every parallel link full utility — the SiP-ML-like
// variant of Appendix F (Discount = 1).
func UnitDiscount(int) float64 { return 1 }

// OCSReconfig runs the Algorithm 5 heuristic: greedily allocate direct
// links to the highest-demand node pairs, discounting repeated pairs,
// until interfaces run out; then patch connectivity with a two-edge
// replacement pass (host-based forwarding requires a connected fabric).
//
// demand is the unsatisfied traffic matrix in bytes (demand[i][j] ≥ 0,
// need not be symmetric). Returns a direct-connect Network with directed
// degree d per node.
func OCSReconfig(n, d int, linkBW float64, demand [][]float64, discount DiscountFunc, ensureConnected bool) *topo.Network {
	if discount == nil {
		discount = ExponentialDiscount
	}
	g := graph.New(n)
	availTx := make([]int, n)
	availRx := make([]int, n)
	for i := range availTx {
		availTx[i] = d
		availRx[i] = d
	}
	// Residual demand, scaled down by the discount as parallel links are
	// added (T(v1,v2) ×= discount ratio; with the exponential discount the
	// residual simply halves).
	resid := make([][]float64, n)
	for i := range resid {
		resid[i] = make([]float64, n)
		copy(resid[i], demand[i])
	}
	type pair struct {
		v1, v2 int
	}
	nLinks := make(map[pair]int)
	for {
		// Highest-demand pair with available interfaces.
		best := pair{-1, -1}
		bestVal := 0.0
		for v1 := 0; v1 < n; v1++ {
			if availTx[v1] == 0 {
				continue
			}
			for v2 := 0; v2 < n; v2++ {
				if v1 == v2 || availRx[v2] == 0 {
					continue
				}
				if resid[v1][v2] > bestVal {
					bestVal = resid[v1][v2]
					best = pair{v1, v2}
				}
			}
		}
		if best.v1 == -1 || bestVal == 0 {
			break
		}
		g.AddEdge(best.v1, best.v2, linkBW)
		l := nLinks[best] + 1
		nLinks[best] = l
		// Scale residual demand by the marginal discount ratio.
		resid[best.v1][best.v2] *= discount(l+1) / discount(l)
		availTx[best.v1]--
		availRx[best.v2]--
	}
	if ensureConnected {
		twoEdgeReplacement(g, n, linkBW, availTx, availRx)
	}
	return &topo.Network{G: g, Hosts: n, ForwardingHosts: true, Name: "OCS-reconfig"}
}

// twoEdgeReplacement connects the fabric (Algorithm 5 line 21, after
// OWAN): first spend leftover interfaces joining components; if none are
// left, replace a parallel link inside one component with a cross-
// component link.
func twoEdgeReplacement(g *graph.Graph, n int, linkBW float64, availTx, availRx []int) {
	for iter := 0; iter < n; iter++ {
		comp := components(g, n)
		if comp.count <= 1 {
			return
		}
		// Pick representatives of two different components, preferring
		// nodes with spare interfaces.
		a, b := -1, -1
		for v := 0; v < n; v++ {
			if comp.id[v] != comp.id[0] {
				b = v
				break
			}
		}
		if b == -1 {
			return
		}
		for v := 0; v < n; v++ {
			if comp.id[v] == comp.id[0] && availTx[v] > 0 {
				a = v
				break
			}
		}
		if a != -1 && availRx[b] > 0 {
			g.AddEdge(a, b, linkBW)
			g.AddEdge(b, a, linkBW)
			availTx[a]--
			availRx[b]--
			if availRx[a] > 0 && availTx[b] > 0 {
				availRx[a]--
				availTx[b]--
			}
			continue
		}
		// No spare ports: classic two-edge replacement (after OWAN).
		// Prefer sacrificing a parallel (multiplicity ≥ 2) link; otherwise
		// cross-swap one edge from each component:
		// (a→b in A, c→d in B) becomes (a→d, c→b), preserving per-node
		// TX/RX counts while bridging the components both ways.
		replaced := false
		for _, e := range g.Edges() {
			if comp.id[e.From] != comp.id[0] {
				continue
			}
			if g.Multiplicity(e.From, e.To) >= 2 {
				rewire(g, e.ID, e.From, b)
				replaced = true
				break
			}
		}
		if !replaced {
			var e1, e2 *graph.Edge
			for _, e := range g.Edges() {
				e := e
				if comp.id[e.From] == comp.id[0] && comp.id[e.To] == comp.id[0] && e1 == nil {
					e1 = &e
				}
				if comp.id[e.From] == comp.id[b] && comp.id[e.To] == comp.id[b] && e2 == nil {
					e2 = &e
				}
			}
			if e1 == nil || e2 == nil {
				return // isolated node with no spare ports: give up
			}
			crossSwap(g, e1.ID, e2.ID)
			replaced = true
		}
	}
}

// crossSwap rewires edges (a→b) and (c→d) into (a→d) and (c→b).
func crossSwap(g *graph.Graph, id1, id2 int) {
	edges := g.Edges()
	e1, e2 := edges[id1], edges[id2]
	fresh := graph.New(g.N())
	for _, e := range edges {
		switch e.ID {
		case id1:
			fresh.AddEdge(e1.From, e2.To, e.Cap)
		case id2:
			fresh.AddEdge(e2.From, e1.To, e.Cap)
		default:
			fresh.AddEdge(e.From, e.To, e.Cap)
		}
	}
	*g = *fresh
}

type compInfo struct {
	id    []int
	count int
}

// components labels weakly connected components (directed edges treated as
// undirected for reachability).
func components(g *graph.Graph, n int) compInfo {
	id := make([]int, n)
	for i := range id {
		id[i] = -1
	}
	count := 0
	for v := 0; v < n; v++ {
		if id[v] != -1 {
			continue
		}
		queue := []int{v}
		id[v] = count
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, eid := range g.Out(u) {
				w := g.Edge(eid).To
				if id[w] == -1 {
					id[w] = count
					queue = append(queue, w)
				}
			}
			for _, eid := range g.In(u) {
				w := g.Edge(eid).From
				if id[w] == -1 {
					id[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return compInfo{id: id, count: count}
}

// rewire retargets edge id from (from -> oldTo) to (from -> newTo). The
// graph package has no edge removal, so we rebuild; n is small enough that
// this simple approach is fine for a 50 ms reconfiguration cadence.
func rewire(g *graph.Graph, edgeID, from, newTo int) {
	edges := g.Edges()
	fresh := graph.New(g.N())
	for _, e := range edges {
		if e.ID == edgeID {
			fresh.AddEdge(from, newTo, e.Cap)
			continue
		}
		fresh.AddEdge(e.From, e.To, e.Cap)
	}
	*g = *fresh
}

// DemandFromMatrix converts an int64 traffic matrix into the float demand
// Algorithm 5 consumes.
func DemandFromMatrix(tm [][]int64) [][]float64 {
	out := make([][]float64, len(tm))
	for i, row := range tm {
		out[i] = make([]float64, len(row))
		for j, v := range row {
			out[i][j] = float64(v)
		}
	}
	return out
}
