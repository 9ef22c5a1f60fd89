// Package core implements the paper's contribution: the TOPOLOGY FINDER
// algorithm (Algorithm 1) that builds a direct-connect topology and routing
// for a training job's traffic demand, the OCS-reconfig heuristic
// (Algorithm 5), and the alternating-optimization glue used by flexnet.
//
// Interface accounting follows the optical reality of §3: one server
// interface is a transceiver whose TX and RX fibers are patched
// independently, so a "+p" ring consumes exactly one interface per member
// (TX to i+p, RX from i-p) and the topology is a directed multigraph with
// out-degree (and, by construction, in-degree) at most d per server. MP
// matching edges allocate one interface at each endpoint in both
// directions.
package core

import (
	"fmt"
	"math"
	"sort"

	"topoopt/internal/graph"
	"topoopt/internal/perm"
	"topoopt/internal/route"
	"topoopt/internal/topo"
	"topoopt/internal/traffic"
)

// Config parameterizes TopologyFinder.
type Config struct {
	// N is the number of dedicated servers.
	N int
	// D is the degree (interfaces) per server.
	D int
	// LinkBW is per-interface bandwidth in bits/s.
	LinkBW float64
	// PrimeOnly restricts TotientPerms candidates to 1 and primes (the
	// paper's large-scale variant).
	PrimeOnly bool
}

// GroupRings records the ring permutations selected for one AllReduce
// group.
type GroupRings struct {
	Members []int
	Ps      []int
	Bytes   int64
}

// Result is TopologyFinder's output: the topology (as a directed
// multigraph wrapped in a Network), per-group AllReduce permutations,
// and the routing table covering AllReduce (coin-change) and MP
// (shortest-path) transfers.
type Result struct {
	Network *topo.Network
	Rings   []GroupRings
	Routes  *route.Table
	// DegreeAllReduce and DegreeMP are the degree split of Algorithm 1
	// lines 2–3.
	DegreeAllReduce int
	DegreeMP        int
}

// TopologyFinder runs Algorithm 1 on the given demand.
func TopologyFinder(cfg Config, dem traffic.Demand) (*Result, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("core: need at least 2 servers, got %d", cfg.N)
	}
	if cfg.D < 1 {
		return nil, fmt.Errorf("core: need degree >= 1, got %d", cfg.D)
	}
	if dem.N != cfg.N {
		return nil, fmt.Errorf("core: demand for %d servers, config for %d", dem.N, cfg.N)
	}
	// Step 1: distribute degree between AllReduce and MP (lines 2–3).
	sumAR := float64(dem.TotalAllReduceBytes())
	sumMP := float64(dem.TotalMPBytes())
	dA := cfg.D
	if sumAR+sumMP > 0 {
		dA = int(math.Ceil(float64(cfg.D) * sumAR / (sumAR + sumMP)))
	}
	if dA < 1 {
		dA = 1
	}
	if dA > cfg.D {
		dA = cfg.D
	}
	// Guarantee MP transfers at least one degree when some MP pair is not
	// covered by any AllReduce group (it could otherwise be unreachable).
	// MP pairs inside a group's span can always ride the group's rings
	// via coin-change forwarding, so no reservation is needed there —
	// this is what lets the §2.1 example devote all three interfaces to
	// the +1/+3/+7 rings.
	if dA == cfg.D && cfg.D >= 2 && hasUncoveredMP(dem) {
		dA = cfg.D - 1
	}
	dMP := cfg.D - dA

	g := graph.New(cfg.N)
	res := &Result{
		Routes:          route.NewTable(cfg.N),
		DegreeAllReduce: dA,
		DegreeMP:        dMP,
	}

	// Step 2: AllReduce sub-topology (lines 4–11). Groups are processed
	// largest-traffic first so degree exhaustion cuts the cheapest groups.
	groups := append([]traffic.Group(nil), dem.Groups...)
	sort.SliceStable(groups, func(i, j int) bool {
		return groupVolume(groups[i]) > groupVolume(groups[j])
	})
	var totalGroupVol float64
	for _, grp := range groups {
		totalGroupVol += groupVolume(grp)
	}
	remaining := dA
	// Algorithm 1 line 2 allocates "at least one degree to the AllReduce
	// sub-topology to ensure the network remains connected". When no
	// group spans all servers (subset-only hybrid parallelism), honor
	// that guarantee explicitly: spend the first degree on a spanning
	// "+1" ring before dividing the rest among groups.
	// Only the largest group is guaranteed a ring (degree may run out
	// before later groups), so the spanning test must look at it alone.
	spans := len(groups) > 0 && len(groups[0].Members) == cfg.N
	if !spans && remaining > 0 {
		all := make([]int, cfg.N)
		for i := range all {
			all[i] = i
		}
		res.Rings = append(res.Rings, GroupRings{Members: all, Ps: []int{1}})
		for _, e := range perm.Ring(all, 1) {
			g.AddEdge(e.From, e.To, cfg.LinkBW)
		}
		remaining--
	}
	for _, grp := range groups {
		if remaining <= 0 {
			break
		}
		k := len(grp.Members)
		if k < 2 {
			continue
		}
		dk := remaining
		if totalGroupVol > 0 {
			dk = int(math.Ceil(float64(dA) * groupVolume(grp) / totalGroupVol))
		}
		if dk > remaining {
			dk = remaining
		}
		if dk < 1 {
			dk = 1
		}
		cands := perm.TotientPerms(k, cfg.PrimeOnly)
		ps := perm.SelectPermutations(k, dk, cands)
		if len(ps) == 0 {
			continue
		}
		// When the group is small enough that φ(k) < dk, reuse
		// permutations as parallel rings rather than stranding
		// interfaces: duplicate links double the ring's bandwidth and
		// the collective stripes across them.
		base := append([]int(nil), ps...)
		for i := 0; len(ps) < dk; i++ {
			ps = append(ps, base[i%len(base)])
		}
		remaining -= len(ps)
		res.Rings = append(res.Rings, GroupRings{
			Members: append([]int(nil), grp.Members...),
			Ps:      ps,
			Bytes:   grp.Bytes,
		})
		for _, p := range ps {
			for _, e := range perm.Ring(grp.Members, p) {
				g.AddEdge(e.From, e.To, cfg.LinkBW)
			}
		}
	}
	// Ensure connectivity even when no AllReduce group exists (pure model
	// parallelism): fall back to a +1 ring over all servers (line 2
	// reserves at least one degree for this).
	if len(res.Rings) == 0 {
		all := make([]int, cfg.N)
		for i := range all {
			all[i] = i
		}
		res.Rings = append(res.Rings, GroupRings{Members: all, Ps: []int{1}})
		for _, e := range perm.Ring(all, 1) {
			g.AddEdge(e.From, e.To, cfg.LinkBW)
		}
	}

	// Step 3: MP sub-topology (lines 12–17). Repeated maximum-weight
	// matching on the symmetrized residual MP demand, halving matched
	// pairs' demand each round (diminishing-return discount).
	if dMP > 0 && sumMP > 0 {
		resid := make([][]float64, cfg.N)
		for i := range resid {
			resid[i] = make([]float64, cfg.N)
		}
		for s := 0; s < cfg.N; s++ {
			for d := 0; d < cfg.N; d++ {
				if s < d {
					resid[s][d] = float64(dem.MP[s][d] + dem.MP[d][s])
				}
			}
		}
		for round := 0; round < dMP; round++ {
			var edges []graph.MatchEdge
			for s := 0; s < cfg.N; s++ {
				for d := s + 1; d < cfg.N; d++ {
					if resid[s][d] > 0 {
						edges = append(edges, graph.MatchEdge{U: s, V: d, Weight: resid[s][d]})
					}
				}
			}
			if len(edges) == 0 {
				break
			}
			mate := graph.MaxWeightMatching(cfg.N, edges, false)
			matched := false
			for v, u := range mate {
				if u > v {
					g.AddEdge(v, u, cfg.LinkBW)
					g.AddEdge(u, v, cfg.LinkBW)
					resid[v][u] /= 2
					matched = true
				}
			}
			if !matched {
				break
			}
		}
	}

	// Step 4: final topology and routing (lines 18–20).
	// Connectivity fallback: join residual components with spare
	// interfaces (mirrors the failure-recovery behaviour of §7).
	connectComponents(g, cfg)
	res.Network = &topo.Network{G: g, Hosts: cfg.N, ForwardingHosts: true, Name: "TopoOpt"}

	// Coin-change routes per AllReduce group (within group members, using
	// group-local indices). Coins are exactly the selected p values: rings
	// are directed, so there is no free reverse hop (Algorithm 4).
	for _, gr := range res.Rings {
		k := len(gr.Members)
		if k < 2 {
			continue
		}
		cc, err := route.NewCoinChange(k, gr.Ps)
		if err != nil {
			return nil, fmt.Errorf("core: coin change for group %v: %w", gr.Ps, err)
		}
		for si := 0; si < k; si++ {
			for di := 0; di < k; di++ {
				if si == di {
					continue
				}
				src, dst := gr.Members[si], gr.Members[di]
				if res.Routes.Get(src, dst) != nil {
					continue // an earlier (larger) group already routed this pair
				}
				local := cc.Route(si, di)
				nodes := make([]int, len(local))
				for i, li := range local {
					nodes[i] = gr.Members[li]
				}
				res.Routes.Set(src, dst, nodes)
			}
		}
	}

	// MP routes: one shortest path on the combined topology for every
	// pair with MP demand. One searcher serves every pair.
	sr := graph.NewSearcher(g)
	for s := 0; s < cfg.N; s++ {
		for d := 0; d < cfg.N; d++ {
			if s == d || dem.MP[s][d] == 0 {
				continue
			}
			p := sr.WeightedShortestPath(s, d, graph.UnitWeight)
			if p == nil {
				return nil, fmt.Errorf("core: no MP path %d -> %d", s, d)
			}
			// MP routes take priority over coin-change detours when the
			// combined topology offers a shorter path; a path of len(p)
			// edges visits len(p)+1 nodes.
			if cur := res.Routes.Get(s, d); cur == nil || len(p)+1 < len(cur) {
				res.Routes.Set(s, d, p.Nodes(g, s))
			}
		}
	}
	// Complete the table so host-based forwarding can serve any residual
	// pair (control traffic, multi-group AllReduce spill-over).
	res.Routes.FillShortestPaths(g)
	return res, nil
}

// connectComponents joins weakly connected components, first with duplex
// links on nodes that still have spare TX/RX interfaces, then — when the
// fragments are saturated (e.g. a subset AllReduce group absorbed the
// whole ring budget at small d) — by cross-swapping one intra-component
// edge from each side (a→b, c→d becomes a→d, c→b), which bridges the
// components while preserving every node's interface count.
func connectComponents(g *graph.Graph, cfg Config) {
	for iter := 0; iter < cfg.N; iter++ {
		comp := components(g, cfg.N)
		if comp.count <= 1 {
			return
		}
		a, b := -1, -1
		for v := 0; v < cfg.N; v++ {
			if comp.id[v] == comp.id[0] && g.OutDegree(v) < cfg.D {
				a = v
				break
			}
		}
		for v := 0; v < cfg.N; v++ {
			if comp.id[v] != comp.id[0] && g.OutDegree(v) < cfg.D {
				b = v
				break
			}
		}
		if a != -1 && b != -1 {
			g.AddEdge(a, b, cfg.LinkBW)
			g.AddEdge(b, a, cfg.LinkBW)
			continue
		}
		// Saturated: two-edge replacement across the first boundary.
		other := -1
		for v := 0; v < cfg.N; v++ {
			if comp.id[v] != comp.id[0] {
				other = comp.id[v]
				break
			}
		}
		var e1, e2 *graph.Edge
		for _, e := range g.Edges() {
			e := e
			if comp.id[e.From] == comp.id[0] && comp.id[e.To] == comp.id[0] && e1 == nil {
				e1 = &e
			}
			if comp.id[e.From] == other && comp.id[e.To] == other && e2 == nil {
				e2 = &e
			}
		}
		if e1 == nil || e2 == nil {
			return // an isolated node with no interfaces at all: give up
		}
		crossSwap(g, e1.ID, e2.ID)
	}
}

// hasUncoveredMP reports whether some MP pair with demand lies outside
// every AllReduce group's member set.
func hasUncoveredMP(dem traffic.Demand) bool {
	if dem.MP == nil {
		return false
	}
	memberOf := make([]map[int]bool, len(dem.Groups))
	for i, g := range dem.Groups {
		memberOf[i] = make(map[int]bool, len(g.Members))
		for _, v := range g.Members {
			memberOf[i][v] = true
		}
	}
	for s := range dem.MP {
		for d, v := range dem.MP[s] {
			if v == 0 || s == d {
				continue
			}
			covered := false
			for i := range memberOf {
				if memberOf[i][s] && memberOf[i][d] {
					covered = true
					break
				}
			}
			if !covered {
				return true
			}
		}
	}
	return false
}

func groupVolume(g traffic.Group) float64 {
	k := len(g.Members)
	if k < 2 {
		return 0
	}
	return float64(k) * float64(traffic.RingPerNodeBytes(g.Bytes, k))
}
