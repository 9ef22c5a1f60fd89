package arch

import (
	"topoopt/internal/core"
	"topoopt/internal/flexnet"
	"topoopt/internal/model"
	"topoopt/internal/parallel"
	"topoopt/internal/traffic"
)

// reconfigurableIteration is the shared evaluation of reconfigurable
// baselines (§5.1): run the default hybrid strategy, then simulate the
// demand-driven reconfiguration loop (measure → reconfigure → transfer)
// with the backend's latency/forwarding/discount parameters. The MP phase
// is folded into the AllReduce accounting by the OCS simulation, so
// MPSeconds stays zero and the tax is 1 (circuits are direct).
func reconfigurableIteration(m *model.Model, o Options, reconfigLatency float64,
	hostForwarding bool, discount core.DiscountFunc) (Iteration, error) {
	batch := o.Batch
	if batch <= 0 {
		batch = m.BatchPerGPU
	}
	gpu := o.GPU
	if gpu.PeakFLOPS == 0 {
		gpu = model.A100
	}
	st := parallel.Hybrid(m, o.Servers)
	dem, err := traffic.FromStrategy(m, st, batch)
	if err != nil {
		return Iteration{}, err
	}
	compute := st.MaxComputeTime(m, gpu, batch)
	cfg := flexnet.OCSRunConfig{
		N: o.Servers, D: o.Degree, LinkBW: o.LinkBW,
		ReconfigLatency: reconfigLatency,
		HostForwarding:  hostForwarding,
		Discount:        discount,
	}
	total, err := flexnet.SimulateOCSIteration(cfg, dem, compute)
	if err != nil {
		return Iteration{}, err
	}
	return Iteration{ComputeSeconds: compute,
		AllReduceSeconds: total - compute, BandwidthTax: 1}, nil
}
