// Package testbed models the 12-node prototype of §6: ASUS servers with
// one A100 each, one 4×25 Gbps HPE NIC (degree d=4, B=25 Gbps) patched
// through a Telescent panel, compared against 100 Gbps and 25 Gbps
// switch baselines. The hardware is simulated (DESIGN.md substitution
// table); the RDMA NPAR forwarding penalty applies to multi-hop TopoOpt
// routes.
package testbed

import (
	"fmt"

	"topoopt/internal/core"
	"topoopt/internal/flexnet"
	"topoopt/internal/model"
	"topoopt/internal/parallel"
	"topoopt/internal/topo"
	"topoopt/internal/traffic"
)

// Nodes is the prototype size.
const Nodes = 12

// Penalty quantifies the cost of host-based RDMA forwarding (§6,
// Appendix I): RoCEv2 NICs drop packets not addressed to them, so
// multi-hop routes forward through a kernel-path NPAR partition on each
// intermediate host instead of the NIC-offloaded RDMA path. The paper
// measures "negligible" overhead for small forwarded volumes; these
// defaults reproduce the testbed's mild degradation.
type Penalty struct {
	// PerHopLatency is the added kernel-processing latency per forwarded
	// hop, seconds.
	PerHopLatency float64
	// BandwidthFraction is the fraction of line rate the kernel path
	// sustains.
	BandwidthFraction float64
}

// DefaultPenalty models the HPE/Marvell NPAR prototype.
var DefaultPenalty = Penalty{PerHopLatency: 8e-6, BandwidthFraction: 0.92}

// Setup identifies one of the three §6 fabrics.
type Setup int

const (
	// TopoOpt4x25 is the prototype: d=4, B=25 Gbps over the patch panel.
	TopoOpt4x25 Setup = iota
	// Switch100 is the Ideal-Switch-like 100 Gbps baseline.
	Switch100
	// Switch25 is the bandwidth-starved 25 Gbps baseline.
	Switch25
)

func (s Setup) String() string {
	switch s {
	case TopoOpt4x25:
		return "TopoOpt 4x25Gbps"
	case Switch100:
		return "Switch 100Gbps"
	case Switch25:
		return "Switch 25Gbps"
	}
	return "unknown"
}

// Setups lists all three in the paper's order.
func Setups() []Setup { return []Setup{TopoOpt4x25, Switch100, Switch25} }

// Result is one model × setup measurement.
type Result struct {
	Setup            Setup
	IterationSeconds float64
	SamplesPerSecond float64
	BandwidthTax     float64
}

// Run measures one model on one setup: builds the fabric, derives the
// §6-scale hybrid strategy and simulates an iteration. The RDMA
// forwarding penalty shrinks TopoOpt's effective multi-hop bandwidth.
func Run(m *model.Model, s Setup, batch int) (Result, error) {
	if batch <= 0 {
		batch = m.BatchPerGPU
	}
	st := parallel.Hybrid(m, Nodes)
	dem, err := traffic.FromStrategy(m, st, batch)
	if err != nil {
		return Result{}, err
	}
	compute := st.MaxComputeTime(m, model.A100, batch)

	var fab *flexnet.Fabric
	switch s {
	case TopoOpt4x25:
		bw := 25e9 * DefaultPenalty.BandwidthFraction
		tf, err := core.TopologyFinder(core.Config{N: Nodes, D: 4, LinkBW: bw}, dem)
		if err != nil {
			return Result{}, err
		}
		fab = flexnet.NewTopoOptFabric(tf)
		fab.LinkLatency = 1e-6 + DefaultPenalty.PerHopLatency
	case Switch100:
		fab = flexnet.NewSwitchFabric(topo.IdealSwitch(Nodes, 100e9))
	case Switch25:
		fab = flexnet.NewSwitchFabric(topo.IdealSwitch(Nodes, 25e9))
	default:
		return Result{}, fmt.Errorf("testbed: unknown setup %d", s)
	}
	it, err := flexnet.SimulateIteration(fab, dem, compute)
	if err != nil {
		return Result{}, err
	}
	iter := it.Total()
	return Result{
		Setup:            s,
		IterationSeconds: iter,
		SamplesPerSecond: float64(batch*Nodes) / iter,
		BandwidthTax:     it.BandwidthTax,
	}, nil
}

// Models returns the five §6 workloads (List 1, §6 column).
func Models() []*model.Model {
	return []*model.Model{
		model.BERTPreset(model.Sec6),
		model.DLRMPreset(model.Sec6),
		model.VGGPreset(model.Sec6),
		model.CANDLEPreset(model.Sec6),
		model.ResNetPreset(model.Sec6),
	}
}

// vgg19Top5 is the published top-5 accuracy trajectory of VGG19 on
// ImageNet by epoch (coarse, monotone): the time-to-accuracy experiment
// (Figure 20) multiplies epochs by measured iteration time.
var vgg19Top5 = []struct {
	Epoch int
	Acc   float64
}{
	{1, 0.30}, {2, 0.45}, {4, 0.58}, {8, 0.70}, {12, 0.76}, {18, 0.81},
	{24, 0.84}, {32, 0.865}, {40, 0.880}, {50, 0.892}, {60, 0.900}, {74, 0.905},
}

// ImageNetSize is the number of training samples per epoch.
const ImageNetSize = 1_281_167

// TimeToAccuracy returns the wall-clock hours for VGG19 to reach the
// target top-5 accuracy at the given training throughput (samples/s).
// Returns an error if the target exceeds the trajectory's ceiling.
func TimeToAccuracy(target, samplesPerSecond float64) (float64, error) {
	for _, pt := range vgg19Top5 {
		if pt.Acc >= target {
			samples := float64(pt.Epoch) * ImageNetSize
			return samples / samplesPerSecond / 3600, nil
		}
	}
	return 0, fmt.Errorf("testbed: target accuracy %.3f unreachable (max %.3f)",
		target, vgg19Top5[len(vgg19Top5)-1].Acc)
}
