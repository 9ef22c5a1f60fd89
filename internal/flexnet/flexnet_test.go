package flexnet

import (
	"math"
	"testing"

	"topoopt/internal/core"
	"topoopt/internal/graph"
	"topoopt/internal/model"
	"topoopt/internal/parallel"
	"topoopt/internal/route"
	"topoopt/internal/topo"
	"topoopt/internal/traffic"
)

func smallDLRM() *model.Model {
	return model.DLRM(model.DLRMConfig{BatchPerGPU: 64, DenseLayers: 4, DenseLayerSize: 1024,
		DenseFeatLayers: 4, FeatLayerSize: 1024, EmbedDim: 128, EmbedRows: 1e6, EmbedTables: 4})
}

func TestSwitchFabricRoutes(t *testing.T) {
	f := NewSwitchFabric(topo.IdealSwitch(8, 400e9))
	p := f.Routes.Get(0, 5)
	if len(p) != 3 || p[1] != 8 {
		t.Errorf("route 0->5 = %v, want via switch 8", p)
	}
}

func TestSimulateIterationIdealSwitchPureDP(t *testing.T) {
	m := model.CANDLEPreset(model.Sec6)
	n := 8
	st := parallel.DataParallel(m, n)
	dem, _ := traffic.FromStrategy(m, st, 10)
	f := NewSwitchFabric(topo.IdealSwitch(n, 400e9))
	res, err := SimulateIteration(f, dem, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if res.MPTime != 0 {
		t.Errorf("pure DP should have no MP phase, got %g", res.MPTime)
	}
	if res.ComputeTime != 0.01 {
		t.Errorf("compute time %g, want 0.01", res.ComputeTime)
	}
	// Ring-AllReduce on an ideal switch: each server sends 2(n-1)/n·S
	// through its 400 Gbps uplink (up and down) → analytic bound.
	per := float64(traffic.RingPerNodeBytes(m.TotalParamBytes(), n))
	analytic := per * 8 / 400e9
	if res.AllReduceTime < analytic*0.99 {
		t.Errorf("AllReduce %g below analytic floor %g", res.AllReduceTime, analytic)
	}
	if res.AllReduceTime > analytic*2.5 {
		t.Errorf("AllReduce %g far above analytic floor %g (uplink+downlink ≤ 2x)", res.AllReduceTime, analytic)
	}
	if res.Total() != res.MPTime+res.ComputeTime+res.AllReduceTime {
		t.Error("Total inconsistent")
	}
}

func TestSimulateIterationTopoOptUsesMultiRing(t *testing.T) {
	m := model.CANDLEPreset(model.Sec6)
	n := 12
	st := parallel.DataParallel(m, n)
	dem, _ := traffic.FromStrategy(m, st, 10)
	tf, err := core.TopologyFinder(core.Config{N: n, D: 4, LinkBW: 100e9}, dem)
	if err != nil {
		t.Fatal(err)
	}
	f := NewTopoOptFabric(tf)
	res, err := SimulateIteration(f, dem, 0)
	if err != nil {
		t.Fatal(err)
	}
	// With 4 rings at 100 Gbps each, AllReduce should beat a single-ring
	// rendering on one 100 Gbps interface by roughly the ring count.
	oneRing := float64(traffic.RingPerNodeBytes(m.TotalParamBytes(), n)) * 8 / 100e9
	if res.AllReduceTime > oneRing*0.5 {
		t.Errorf("multi-ring AllReduce %g not enough faster than single ring %g",
			res.AllReduceTime, oneRing)
	}
	if res.BandwidthTax < 1 {
		t.Errorf("bandwidth tax %g < 1", res.BandwidthTax)
	}
}

func TestEstimateTracksSimulation(t *testing.T) {
	// The analytic estimate should be within ~2x of the simulated time for
	// a simple fabric (it ignores queueing interactions but both measure
	// bottleneck-link time).
	m := smallDLRM()
	n := 16
	st := parallel.Hybrid(m, n)
	dem, _ := traffic.FromStrategy(m, st, 64)
	tf, err := core.TopologyFinder(core.Config{N: n, D: 4, LinkBW: 100e9}, dem)
	if err != nil {
		t.Fatal(err)
	}
	f := NewTopoOptFabric(tf)
	sim, err := SimulateIteration(f, dem, 0)
	if err != nil {
		t.Fatal(err)
	}
	est := EstimateIteration(f, dem, 0)
	ratio := sim.Total() / est
	if ratio < 0.4 || ratio > 4 {
		t.Errorf("estimate %g vs simulation %g (ratio %g) diverge", est, sim.Total(), ratio)
	}
}

func TestEstimateInfiniteWhenDisconnected(t *testing.T) {
	nw := topo.DirectConnect(4, [][2]int{{0, 1}}, 100e9)
	f := NewSwitchFabric(nw)
	dem := traffic.Demand{N: 4, MP: traffic.NewMatrix(4)}
	dem.MP.Add(2, 3, 1000)
	est := EstimateIteration(f, dem, 0)
	// 2->3 unroutable: LinkLoads skips pairs with no route, so the
	// phase contributes nothing; estimate stays finite but the full
	// simulation errors instead.
	_ = est
	if _, err := SimulateIteration(f, dem, 0); err == nil {
		t.Error("simulation should fail on unroutable demand")
	}
}

func TestMCMCImprovesOverHybridOnBadPlacement(t *testing.T) {
	// Evaluator that punishes shards on servers != 0: MCMC should learn to
	// either replicate everything or pile shards near 0.
	m := smallDLRM()
	n := 8
	eval := func(s parallel.Strategy) float64 {
		cost := 1.0
		for _, li := range s.ShardedLayers() {
			for _, h := range s.Layers[li].Group {
				cost += float64(h)
			}
		}
		return cost
	}
	st, c := MCMCSearch(m, n, 64, eval, MCMCConfig{Iters: 500, Seed: 1})
	if err := st.Validate(m); err != nil {
		t.Fatal(err)
	}
	if c > eval(parallel.Hybrid(m, n)) {
		t.Errorf("MCMC cost %g worse than hybrid start %g", c, eval(parallel.Hybrid(m, n)))
	}
}

func TestMCMCDeterministicForSeed(t *testing.T) {
	m := smallDLRM()
	eval := func(s parallel.Strategy) float64 {
		return float64(len(s.ShardedLayers()) + 1)
	}
	_, c1 := MCMCSearch(m, 8, 64, eval, MCMCConfig{Iters: 100, Seed: 7})
	_, c2 := MCMCSearch(m, 8, 64, eval, MCMCConfig{Iters: 100, Seed: 7})
	if c1 != c2 {
		t.Errorf("non-deterministic MCMC: %g vs %g", c1, c2)
	}
}

func TestMCMCNoShardableLayers(t *testing.T) {
	m := model.CANDLEPreset(model.Sec6)
	st, _ := MCMCSearch(m, 8, 10, func(parallel.Strategy) float64 { return 1 },
		MCMCConfig{Iters: 50, Seed: 1})
	if !st.IsPureDataParallel() {
		t.Error("CANDLE should stay pure data parallel")
	}
}

func TestCoOptimizeDLRM(t *testing.T) {
	m := smallDLRM()
	res, err := CoOptimize(m, CoOptConfig{
		N: 16, Degree: 4, LinkBW: 100e9, Rounds: 2, MCMCIters: 60, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Strategy.Validate(m); err != nil {
		t.Fatal(err)
	}
	if !res.Topo.Network.G.Connected() {
		t.Error("final topology disconnected")
	}
	if res.IterTime.Total() <= 0 {
		t.Error("iteration time must be positive")
	}
	if len(res.History) < 1 {
		t.Error("history empty")
	}
	// History should be non-increasing at the accepted points (best-so-far
	// semantics mean the final config is at least as good as round 0).
	if res.History[len(res.History)-1] > res.History[0]*1.001 &&
		len(res.History) > 1 {
		// Converged-and-broke case keeps the earlier best; only assert the
		// chosen config is ≤ round 0.
		best := math.Inf(1)
		for _, h := range res.History {
			if h < best {
				best = h
			}
		}
		if best > res.History[0] {
			t.Errorf("alternating optimization worsened: %v", res.History)
		}
	}
}

func TestCoOptimizeBeatsCostEquivalentFatTree(t *testing.T) {
	// The headline claim (§5.3, at a shape level): TopoOpt with d=4×B
	// beats a similar-cost Fat-tree whose per-server bandwidth is d×B'
	// with B' < B. Use B=100G for TopoOpt vs 100G total for Fat-tree
	// (i.e. B'=25G), a generous approximation of the cost parity in §5.2.
	m := model.CANDLEPreset(model.Sec6)
	n := 16
	topoRes, err := CoOptimize(m, CoOptConfig{
		N: n, Degree: 4, LinkBW: 100e9, Rounds: 1, MCMCIters: 30, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ft := NewSwitchFabric(topo.FatTree(n, 100e9))
	_, ftIter, err := SearchOnFabric(m, ft, n, 0, MCMCConfig{Iters: 30, Seed: 1}, model.GPU{})
	if err != nil {
		t.Fatal(err)
	}
	if topoRes.IterTime.Total() >= ftIter.Total() {
		t.Errorf("TopoOpt %g should beat cost-equivalent Fat-tree %g",
			topoRes.IterTime.Total(), ftIter.Total())
	}
}

func TestRingsForFallsBackToPlusOne(t *testing.T) {
	f := NewSwitchFabric(topo.IdealSwitch(4, 1e9))
	ps := f.ringsFor([]int{0, 1, 2, 3})
	if len(ps) != 1 || ps[0] != 1 {
		t.Errorf("fallback rings = %v, want [1]", ps)
	}
}

func TestSameMembers(t *testing.T) {
	if !sameMembers([]int{1, 2, 3}, []int{3, 1, 2}) {
		t.Error("permuted sets should match")
	}
	if sameMembers([]int{1, 2}, []int{1, 2, 3}) {
		t.Error("different sizes should not match")
	}
	if sameMembers([]int{1, 1, 2}, []int{1, 2, 2}) {
		t.Error("multiset mismatch should not match")
	}
}

// TestRingsForMatchesPermutedMembers: an AllReduce group finds its
// TopologyFinder rings whatever the order of its members, and the lookup
// allocates nothing.
func TestRingsForMatchesPermutedMembers(t *testing.T) {
	f := &Fabric{Rings: []core.GroupRings{
		{Members: []int{0, 2, 4}, Ps: []int{1}},
		{Members: []int{0, 2, 4, 6}, Ps: []int{1, 3}},
	}}
	perm := []int{4, 0, 6, 2}
	if ps := f.ringsFor(perm); len(ps) != 2 || ps[1] != 3 {
		t.Fatalf("rings for %v = %v, want [1 3]", perm, ps)
	}
	if allocs := testing.AllocsPerRun(100, func() { f.ringsFor(perm) }); allocs != 0 {
		t.Errorf("ringsFor allocates %v objects per call", allocs)
	}
}

// ringFabric is an n-server duplex ring whose every neighbor pair is
// joined by one parallel link per capacity in caps.
func ringFabric(n int, caps ...float64) *Fabric {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		for _, c := range caps {
			g.AddDuplex(v, (v+1)%n, c)
		}
	}
	return NewSwitchFabric(&topo.Network{G: g, Hosts: n, ForwardingHosts: true})
}

// bothEvaluators scores s on a fabric with the full analytic evaluator
// and with a fresh DeltaEval.
func bothEvaluators(m *model.Model, s parallel.Strategy) map[string]func(*Fabric) float64 {
	return map[string]func(*Fabric) float64{
		"full":  func(f *Fabric) float64 { return fullEval(f, m, m.BatchPerGPU, model.A100)(s) },
		"delta": func(f *Fabric) float64 { return NewDeltaEval(m, f, m.BatchPerGPU, model.A100).Eval(s) },
	}
}

// TestPhaseTimeSumsParallelLinks: parallel links of unequal capacity
// between one node pair carry a phase together, in both evaluators.
func TestPhaseTimeSumsParallelLinks(t *testing.T) {
	m := model.DLRMPreset(model.Sec6)
	n := 12
	for name, eval := range bothEvaluators(m, parallel.Hybrid(m, n)) {
		split, whole := eval(ringFabric(n, 10e9, 30e9)), eval(ringFabric(n, 40e9))
		if split != whole {
			t.Errorf("%s: 10+30 Gbps links give %v, one 40 Gbps link %v", name, split, whole)
		}
		if thin := eval(ringFabric(n, 30e9)); thin <= whole {
			t.Errorf("%s: the 30 Gbps link alone gives %v, not slower than %v", name, thin, whole)
		}
	}
}

// TestUnlinkedRouteIsInfinite: a route across a node pair with no link
// makes the iteration infinite in both evaluators.
func TestUnlinkedRouteIsInfinite(t *testing.T) {
	m := model.DLRMPreset(model.Sec6)
	n := 12
	nw := topo.IdealSwitch(n, 100e9)
	tab := route.NewTable(nw.G.N())
	tab.Set(0, 1, []int{0, 1}) // servers meet only through the switch
	fab := NewRoutedFabric(nw, tab)
	for name, eval := range bothEvaluators(m, parallel.DataParallel(m, n)) {
		if got := eval(fab); got < inf {
			t.Errorf("%s: iteration over an unlinked route = %v, want >= %v", name, got, inf)
		}
	}
}
