package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"topoopt/internal/core"
	"topoopt/internal/flexnet"
	"topoopt/internal/graph"
	"topoopt/internal/model"
	"topoopt/internal/parallel"
	"topoopt/internal/perm"
	"topoopt/internal/route"
	"topoopt/internal/topo"
	"topoopt/internal/traffic"
)

// AblationSelectPerms compares SelectPermutations' geometric-sequence
// selection against choosing the d smallest or d random co-primes,
// measuring the resulting AllReduce sub-topology diameter (Theorem 1).
func AblationSelectPerms(p Params) string {
	var b strings.Builder
	b.WriteString(header("Ablation", "SelectPermutations: geometric vs smallest vs random"))
	b.WriteString(row("n / d", "geometric", "smallest", "random"))
	rng := rand.New(rand.NewSource(p.Seed))
	for _, n := range []int{32, 64, 128, 256} {
		for _, d := range []int{2, 3, 4} {
			cands := perm.Coprimes(n)
			geo := perm.SelectPermutations(n, d, cands)
			smallest := append([]int(nil), cands...)
			if len(smallest) > d {
				smallest = smallest[:d]
			}
			random := make([]int, 0, d)
			seen := map[int]bool{}
			for len(random) < d && len(random) < len(cands) {
				c := cands[rng.Intn(len(cands))]
				if !seen[c] {
					seen[c] = true
					random = append(random, c)
				}
			}
			diam := func(ps []int) string {
				cc, err := route.NewCoinChange(n, ps)
				if err != nil {
					return "err"
				}
				return fmt.Sprint(cc.MaxHops())
			}
			b.WriteString(row(fmt.Sprintf("n=%d d=%d", n, d),
				diam(geo), diam(smallest), diam(random)))
		}
	}
	b.WriteString("geometric selection bounds diameter near d*n^(1/d); smallest co-primes degenerate to ~n/d\n")
	return b.String()
}

// AblationMPDiscount compares TopologyFinder's demand-halving after each
// matching round (Algorithm 1 line 17) against no discount, measuring the
// number of distinct server pairs served with direct MP links.
func AblationMPDiscount(p Params) string {
	var b strings.Builder
	b.WriteString(header("Ablation", "MP matching demand discount (halving) vs none"))
	n := 16
	rng := rand.New(rand.NewSource(p.Seed))
	resid := make([][]float64, n)
	for i := range resid {
		resid[i] = make([]float64, n)
	}
	// Skewed demand: a few hot pairs and a long tail.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			resid[i][j] = rng.Float64()
		}
	}
	resid[0][1] = 100
	resid[2][3] = 90
	run := func(discount bool) int {
		r := make([][]float64, n)
		for i := range r {
			r[i] = append([]float64(nil), resid[i]...)
		}
		pairs := map[[2]int]bool{}
		for round := 0; round < 6; round++ {
			var edges []graph.MatchEdge
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if r[i][j] > 0 {
						edges = append(edges, graph.MatchEdge{U: i, V: j, Weight: r[i][j]})
					}
				}
			}
			mate := graph.MaxWeightMatching(n, edges, false)
			for v, u := range mate {
				if u > v {
					pairs[[2]int{v, u}] = true
					if discount {
						r[v][u] /= 2
					}
				}
			}
		}
		return len(pairs)
	}
	with, without := run(true), run(false)
	b.WriteString(row("distinct pairs", fmt.Sprintf("halving: %d", with),
		fmt.Sprintf("none: %d", without)))
	fmt.Fprintf(&b, "halving spreads links over %d pairs vs %d without (diverse connectivity, Alg 1)\n",
		with, without)
	return b.String()
}

// AblationAlternating compares the §4.1 alternating optimization against
// the naive sequential approach (search the strategy on an ideal fabric,
// then fit a topology once).
func AblationAlternating(p Params) string {
	var b strings.Builder
	b.WriteString(header("Ablation", "Alternating optimization vs sequential (naive)"))
	n := 16
	m := model.DLRM(model.DLRMConfig{BatchPerGPU: 64, DenseLayers: 4,
		DenseLayerSize: 1024, DenseFeatLayers: 4, FeatLayerSize: 1024,
		EmbedDim: 128, EmbedRows: 1e6, EmbedTables: 8})
	alt, err := flexnet.CoOptimize(m, flexnet.CoOptConfig{
		N: n, Degree: 4, LinkBW: 100e9, Rounds: 3, MCMCIters: p.MCMCIters, Seed: p.Seed,
	})
	if err != nil {
		return b.String() + "error: " + err.Error()
	}
	// Naive: best strategy on an ideal switch, then one TopologyFinder.
	ideal := flexnet.NewSwitchFabric(topo.IdealSwitch(n, 4*100e9))
	st, _, err := flexnet.SearchOnFabric(m, ideal, n, 0, flexnet.MCMCConfig{Iters: p.MCMCIters, Seed: p.Seed}, model.A100)
	if err != nil {
		return b.String() + "error: " + err.Error()
	}
	dem, err := traffic.FromStrategy(m, st, m.BatchPerGPU)
	if err != nil {
		return b.String() + "error: " + err.Error()
	}
	tf, err := core.TopologyFinder(core.Config{N: n, D: 4, LinkBW: 100e9}, dem)
	if err != nil {
		return b.String() + "error: " + err.Error()
	}
	seqIt, err := flexnet.SimulateIteration(flexnet.NewTopoOptFabric(tf), dem,
		st.MaxComputeTime(m, model.A100, m.BatchPerGPU))
	if err != nil {
		return b.String() + "error: " + err.Error()
	}
	b.WriteString(row("alternating", secs(alt.IterTime.Total())))
	b.WriteString(row("sequential", secs(seqIt.Total())))
	fmt.Fprintf(&b, "alternating/sequential = %.2f (<= 1 expected; equal when hybrid is already optimal)\n",
		alt.IterTime.Total()/seqIt.Total())
	return b.String()
}

// AblationMCMCBudget sweeps the MCMC iteration budget (design decision 6).
func AblationMCMCBudget(p Params) string {
	var b strings.Builder
	b.WriteString(header("Ablation", "MCMC search budget"))
	n := 16
	m := model.DLRM(model.DLRMConfig{BatchPerGPU: 64, DenseLayers: 4,
		DenseLayerSize: 1024, DenseFeatLayers: 4, FeatLayerSize: 1024,
		EmbedDim: 128, EmbedRows: 1e6, EmbedTables: 8})
	b.WriteString(row("iters", "estimated iteration"))
	fab := flexnet.NewSwitchFabric(topo.IdealSwitch(n, 400e9))
	for _, iters := range []int{10, 50, 200, 800} {
		eval := func(s parallel.Strategy) float64 {
			d, err := traffic.FromStrategy(m, s, m.BatchPerGPU)
			if err != nil {
				return 1e30
			}
			return flexnet.EstimateIteration(fab, d, s.MaxComputeTime(m, model.A100, m.BatchPerGPU))
		}
		_, cost := flexnet.MCMCSearch(m, n, m.BatchPerGPU, eval,
			flexnet.MCMCConfig{Iters: iters, Seed: p.Seed})
		b.WriteString(row(fmt.Sprint(iters), secs(cost)))
	}
	b.WriteString("cost is non-increasing in budget (best-so-far semantics)\n")
	return b.String()
}

// AblationMultiRing compares TotientPerms multi-ring AllReduce against a
// single +1 ring on the same TopoOpt fabric (design decision: the NCCL
// load-balancing integration of §6).
func AblationMultiRing(p Params) string {
	var b strings.Builder
	b.WriteString(header("Ablation", "Multi-ring (TotientPerms) vs single-ring AllReduce"))
	n := 32
	m := model.CANDLEPreset(model.Sec53)
	st := parallel.DataParallel(m, n)
	dem, _ := traffic.FromStrategy(m, st, m.BatchPerGPU)
	tf, err := core.TopologyFinder(core.Config{N: n, D: 4, LinkBW: 100e9}, dem)
	if err != nil {
		return b.String() + "error: " + err.Error()
	}
	multi := flexnet.NewTopoOptFabric(tf)
	multiIt, err := flexnet.SimulateIteration(multi, dem, 0)
	if err != nil {
		return b.String() + "error: " + err.Error()
	}
	single := flexnet.NewTopoOptFabric(tf)
	single.Rings = nil // falls back to a +1 ring over one interface
	singleIt, err := flexnet.SimulateIteration(single, dem, 0)
	if err != nil {
		return b.String() + "error: " + err.Error()
	}
	b.WriteString(row("multi-ring", secs(multiIt.AllReduceTime)))
	b.WriteString(row("single-ring", secs(singleIt.AllReduceTime)))
	fmt.Fprintf(&b, "speedup %.1fx (expect ~#rings: one ring leaves d-1 interfaces idle)\n",
		singleIt.AllReduceTime/multiIt.AllReduceTime)
	return b.String()
}
