package flexnet

import (
	"fmt"

	"topoopt/internal/traffic"
)

// IterationResult breaks an iteration's time into its phases. The paper's
// Eq. (1) formulation (§5.4) assumes no compute/communication overlap; we
// follow it: iteration = MP phase + compute + AllReduce phase.
type IterationResult struct {
	MPTime        float64
	ComputeTime   float64
	AllReduceTime float64
	BandwidthTax  float64
}

// Total returns the iteration time in seconds.
func (r IterationResult) Total() float64 { return r.MPTime + r.ComputeTime + r.AllReduceTime }

// SimulateIteration runs one training iteration on the fabric with the
// flow-level simulator: all MP transfers first, a compute interval, then
// all AllReduce transfers (rendered under the fabric's ring policy).
func SimulateIteration(f *Fabric, dem traffic.Demand, computeTime float64) (IterationResult, error) {
	res := IterationResult{ComputeTime: computeTime}

	runPhase := func(tm traffic.Matrix) (float64, error) {
		if tm.Total() == 0 {
			return 0, nil
		}
		sim := f.AcquireSim()
		defer f.ReleaseSim(sim)
		pending := 0
		if err := f.InjectMatrix(sim, tm, &pending, nil); err != nil {
			return 0, err
		}
		end := sim.Run(0)
		if sim.ActiveFlows() != 0 {
			return 0, fmt.Errorf("flexnet: %d flows stalled (disconnected or zero-capacity path)", sim.ActiveFlows())
		}
		res.BandwidthTax = sim.BandwidthTax() // last phase's tax; callers read after AR phase
		return end, nil
	}

	var err error
	if res.MPTime, err = runPhase(f.MPMatrix(dem)); err != nil {
		return res, err
	}
	mpTax := res.BandwidthTax
	if res.AllReduceTime, err = runPhase(f.AllReduceMatrix(dem)); err != nil {
		return res, err
	}
	// Report the volume-weighted tax over both phases.
	mpVol := float64(dem.TotalMPBytes())
	arVol := float64(dem.TotalAllReduceBytes())
	if mpVol+arVol > 0 {
		res.BandwidthTax = (mpTax*mpVol + res.BandwidthTax*arVol) / (mpVol + arVol)
	} else {
		res.BandwidthTax = 1
	}
	return res, nil
}

// EstimateIteration is the fast analytic evaluator used inside MCMC: each
// phase's duration is the most-loaded node-pair's bytes divided by the
// aggregate capacity between that pair, the standard max-link-load bound.
func EstimateIteration(f *Fabric, dem traffic.Demand, computeTime float64) float64 {
	loads := make([]int64, len(f.caps))
	f.Routes.LinkLoads(f.MPMatrix(dem), loads)
	mp := f.phaseTime(loads)
	clear(loads)
	f.Routes.LinkLoads(f.AllReduceMatrix(dem), loads)
	return mp + computeTime + f.phaseTime(loads)
}

// phaseTime is one phase's max-link time: the most any loaded node pair
// takes to carry its bytes, infinite if that pair has no link.
func (f *Fabric) phaseTime(loads []int64) float64 {
	worst := 0.0
	for i, bytes := range loads {
		if bytes == 0 {
			continue
		}
		if f.caps[i] <= 0 {
			return inf
		}
		worst = max(worst, float64(bytes)*8/f.caps[i])
	}
	return worst
}

const inf = 1e30
