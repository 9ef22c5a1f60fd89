package flexnet

import (
	"fmt"

	"topoopt/internal/collective"
	"topoopt/internal/core"
	"topoopt/internal/netsim"
	"topoopt/internal/route"
	"topoopt/internal/traffic"
)

// ocsMeasureInterval is the reconfigurable fabric's demand sampling
// period in seconds (the paper uses 50 ms following SiP-ML).
const ocsMeasureInterval = 0.050

// OCSRunConfig parameterizes the OCS-reconfig architecture (§5.1): a
// reconfigurable direct-connect fabric that re-optimizes circuits from
// the instantaneous unsatisfied demand every 50 ms, paying
// ReconfigLatency of dark time per reconfiguration (§5.7 sweeps this from
// 1 µs to 10 ms).
type OCSRunConfig struct {
	N               int
	D               int
	LinkBW          float64
	ReconfigLatency float64
	// HostForwarding enables multi-hop relaying over the instantaneous
	// topology (OCS-reconfig-FW); without it only directly connected
	// pairs make progress (OCS-reconfig-noFW / SiP-ML style).
	HostForwarding bool
	// Discount is Algorithm 5's parallel-link utility discount; nil means
	// the paper's exponential. core.UnitDiscount reproduces SiP-ML's
	// formulation (Appendix F).
	Discount core.DiscountFunc
}

// SimulateOCSIteration runs one training iteration (MP phase → compute →
// AllReduce phase) on a reconfigurable fabric: each round reconfigures to
// the residual demand, then transfers for up to ocsMeasureInterval on
// the frozen topology. Returns the iteration time.
func SimulateOCSIteration(cfg OCSRunConfig, dem traffic.Demand, computeTime float64) (float64, error) {
	mp := traffic.NewMatrix(cfg.N)
	for s := range dem.MP {
		for d, v := range dem.MP[s] {
			mp.Add(s, d, v)
		}
	}
	ar := traffic.NewMatrix(cfg.N)
	for _, g := range dem.Groups {
		collective.Ring(ar, g.Members, 1, g.Bytes)
	}
	t1, err := drainOnReconfigurable(cfg, mp)
	if err != nil {
		return 0, err
	}
	t2, err := drainOnReconfigurable(cfg, ar)
	if err != nil {
		return 0, err
	}
	return t1 + computeTime + t2, nil
}

// drainOnReconfigurable transfers the demand matrix to completion over
// successive reconfiguration rounds and returns the elapsed time.
func drainOnReconfigurable(cfg OCSRunConfig, demand traffic.Matrix) (float64, error) {
	remaining := demand.Clone()
	elapsed := 0.0
	// One simulator for all rounds: each round's topology differs, but
	// Reset re-targets the warm buffers at the new graph.
	var sim *netsim.Sim
	const maxRounds = 100000
	for round := 0; round < maxRounds; round++ {
		if remaining.Total() == 0 {
			return elapsed, nil
		}
		// Reconfigure to the residual demand (Algorithm 5) and pay the
		// dark time.
		nw := core.OCSReconfig(cfg.N, cfg.D, cfg.LinkBW,
			core.DemandFromMatrix(remaining), cfg.Discount, cfg.HostForwarding)
		elapsed += cfg.ReconfigLatency

		tbl := route.NewTable(cfg.N)
		if cfg.HostForwarding {
			tbl.FillShortestPaths(nw.G)
		} else {
			for s := 0; s < cfg.N; s++ {
				for d := 0; d < cfg.N; d++ {
					if s != d && nw.G.HasEdge(s, d) {
						tbl.Set(s, d, []int{s, d})
					}
				}
			}
		}
		if sim == nil {
			sim = netsim.New(nw.G, -1)
		} else {
			sim.Reset(nw.G, -1)
		}
		type key struct{ s, d int }
		flows := make(map[key][]*netsim.Flow)
		progressed := false
		for s := 0; s < cfg.N; s++ {
			for d := 0; d < cfg.N; d++ {
				if remaining[s][d] == 0 || s == d {
					continue
				}
				nodes := tbl.Get(s, d)
				if nodes == nil {
					continue // blocked this round (noFW without a circuit)
				}
				fs, err := sim.AddFlowNodesStriped(nodes, float64(remaining[s][d]), 0, nil)
				if err != nil {
					return 0, err
				}
				flows[key{s, d}] = fs
				progressed = true
			}
		}
		if !progressed {
			return 0, fmt.Errorf("flexnet: reconfigurable fabric made no progress (demand %d bytes)", remaining.Total())
		}
		end := sim.Run(ocsMeasureInterval)
		elapsed += end
		for k, fs := range flows {
			left := 0.0
			for _, f := range fs {
				left += f.Remaining
			}
			if int64(left) < remaining[k.s][k.d] {
				remaining[k.s][k.d] = int64(left)
			}
		}
	}
	return 0, fmt.Errorf("flexnet: demand did not drain within round budget")
}
