// Package flexnet is this repository's FlexNet: the network-aware
// augmentation of FlexFlow's strategy search described in §5.1. It
// provides (i) a Fabric abstraction bundling a network architecture with
// routing and an AllReduce rendering policy, (ii) an iteration-time
// evaluator in two fidelities — a fast analytic estimate for MCMC inner
// loops and a full flow-level simulation for reported numbers — (iii) the
// FlexFlow-style MCMC parallelization-strategy search, and (iv) the
// alternating optimization loop of §4.1 that co-optimizes strategy and
// topology via core.TopologyFinder.
package flexnet

import (
	"sync"

	"topoopt/internal/collective"
	"topoopt/internal/core"
	"topoopt/internal/netsim"
	"topoopt/internal/route"
	"topoopt/internal/topo"
	"topoopt/internal/traffic"
)

// Fabric is a network architecture prepared for evaluation: topology,
// routing table and (for TopoOpt fabrics) the AllReduce ring permutations
// to load-balance across.
type Fabric struct {
	Net    *topo.Network
	Routes *route.Table
	// Rings, when non-nil, maps AllReduce groups to their TotientPerms
	// permutations (TopoOpt fabrics). Switch fabrics leave it nil and use
	// a single "+1" ring.
	Rings []core.GroupRings
	// LinkLatency is per-hop propagation delay for simulation (seconds);
	// negative selects the default 1 µs.
	LinkLatency float64

	// simPool recycles simulators across evaluations so MCMC iterations
	// and sweep points stop re-allocating one per call. A pool (rather
	// than a single cached instance) lets concurrent users — parallel
	// search chains, overlapping service requests — each hold their own
	// simulator while still reusing retired ones via Sim.Reset.
	simPool sync.Pool
}

// AcquireSim returns a simulator reset to the empty state over the
// fabric's graph, reusing a pooled instance when one is available (the
// allocation-free path) and allocating otherwise. Callers that finish a
// simulation should hand the instance back with ReleaseSim so the next
// evaluation can Reset-reuse it. Safe for concurrent use: every caller
// gets a private instance.
func (f *Fabric) AcquireSim() *netsim.Sim {
	if s, ok := f.simPool.Get().(*netsim.Sim); ok {
		s.Reset(f.Net.G, f.LinkLatency)
		return s
	}
	return netsim.New(f.Net.G, f.LinkLatency)
}

// ReleaseSim returns a simulator obtained from AcquireSim to the pool.
// The caller must not use it afterwards.
func (f *Fabric) ReleaseSim(s *netsim.Sim) {
	f.simPool.Put(s)
}

// NewSwitchFabric prepares a switch-based network (Ideal Switch, Fat-tree,
// Oversub Fat-tree, Expander, SiP-Ring): all-pairs shortest-path routing.
func NewSwitchFabric(nw *topo.Network) *Fabric {
	t := route.NewTable(nw.G.N())
	t.FillShortestPaths(nw.G)
	return &Fabric{Net: nw, Routes: t, LinkLatency: -1}
}

// NewRoutedFabric prepares a network with a caller-supplied routing
// table (fabrics whose routing is structural rather than shortest-path,
// e.g. dimension-ordered routing on a torus). Pairs without installed
// routes fall back to shortest paths so switch nodes and asymmetric
// tables stay reachable.
func NewRoutedFabric(nw *topo.Network, t *route.Table) *Fabric {
	t.FillShortestPaths(nw.G)
	return &Fabric{Net: nw, Routes: t, LinkLatency: -1}
}

// NewTopoOptFabric wraps a TopologyFinder result.
func NewTopoOptFabric(res *core.Result) *Fabric {
	return &Fabric{Net: res.Network, Routes: res.Routes, Rings: res.Rings, LinkLatency: -1}
}

// allReduceMatrix renders the demand's AllReduce groups into a concrete
// traffic matrix under this fabric's policy.
func (f *Fabric) AllReduceMatrix(dem traffic.Demand) traffic.Matrix {
	tm := traffic.NewMatrix(f.Net.G.N())
	for _, g := range dem.Groups {
		collective.MultiRing(tm, g.Members, f.ringsFor(g.Members), g.Bytes)
	}
	return tm
}

// ringsFor returns the permutations to use for an AllReduce over the given
// members: the matching TopologyFinder group if present, else {+1}.
func (f *Fabric) ringsFor(members []int) []int {
	for _, gr := range f.Rings {
		if sameMembers(gr.Members, members) && len(gr.Ps) > 0 {
			return gr.Ps
		}
	}
	return []int{1}
}

func sameMembers(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int]int, len(a))
	for _, v := range a {
		seen[v]++
	}
	for _, v := range b {
		seen[v]--
		if seen[v] < 0 {
			return false
		}
	}
	return true
}

// mpMatrix widens the demand's MP matrix to the fabric's node count
// (switch fabrics have extra switch nodes).
func (f *Fabric) MPMatrix(dem traffic.Demand) traffic.Matrix {
	tm := traffic.NewMatrix(f.Net.G.N())
	for s := range dem.MP {
		for d, v := range dem.MP[s] {
			if v > 0 {
				tm.Add(s, d, v)
			}
		}
	}
	return tm
}

// maxStripes caps channel striping per transfer (NCCL-like).
const maxStripes = 8

// InjectMatrix adds one striped flow per nonzero matrix entry along the
// installed route, counting completions into the returned counter.
func (f *Fabric) InjectMatrix(sim *netsim.Sim, tm traffic.Matrix, pending *int, onDone func()) error {
	for s := range tm {
		for d, bytes := range tm[s] {
			if bytes == 0 || s == d {
				continue
			}
			nodes := f.Routes.Get(s, d)
			if nodes == nil {
				nodes = append([]int{}, s, d) // direct attempt; path resolution fails if absent
			}
			*pending++
			_, err := sim.AddFlowNodesStriped(nodes, float64(bytes), maxStripes, func(float64) {
				*pending--
				if *pending == 0 && onDone != nil {
					onDone()
				}
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}
