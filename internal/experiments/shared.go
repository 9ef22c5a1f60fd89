package experiments

import (
	"fmt"
	"strings"

	"topoopt/internal/cluster"
	"topoopt/internal/collective"
	"topoopt/internal/core"
	"topoopt/internal/cost"
	"topoopt/internal/flexnet"
	"topoopt/internal/heatmap"
	"topoopt/internal/model"
	"topoopt/internal/parallel"
	"topoopt/internal/stats"
	"topoopt/internal/testbed"
	"topoopt/internal/topo"
	"topoopt/internal/traffic"
)

// Fig16SharedCluster reproduces Figure 16: average and 99th-percentile
// iteration time vs cluster load for TopoOpt (sharded partitions),
// Fat-tree, Oversub Fat-tree and Ideal Switch.
func Fig16SharedCluster(p Params) string {
	var b strings.Builder
	n := p.SharedScale
	spj := p.ServersPerJob
	maxJobs := n / spj
	b.WriteString(header("Figure 16",
		fmt.Sprintf("Shared cluster of %d servers, %d servers/job (d=8, B=100G)", n, spj)))
	b.WriteString(row("load", "arch", "avg iter", "p99 iter"))
	loads := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	d := 8
	bw := 100e9
	// Rack size for the oversubscribed fabric; job placement is strided
	// across racks (production clusters are not rack-aligned), which is
	// what exposes ToR-uplink contention.
	rack := spj
	for _, load := range loads {
		jobs := int(load * float64(maxJobs))
		if jobs < 1 {
			jobs = 1
		}
		// TopoOpt: optically sharded partitions (placement-insensitive).
		sched := cluster.NewScheduler(n)
		js, err := cluster.BuildMix(sched, cluster.MixSpec{Jobs: jobs, ServersPerJob: spj})
		if err != nil {
			return b.String() + "error: " + err.Error()
		}
		times, err := cluster.RunShardedTopoOpt(js, d, bw, p.Iterations, model.A100)
		if err != nil {
			return b.String() + "error: " + err.Error()
		}
		flat := cluster.Flatten(times)
		b.WriteString(row(fmt.Sprintf("%.0f%%", load*100), "TopoOpt",
			secs(stats.Mean(flat)), secs(stats.Percentile(flat, 99))))

		// Switch fabrics: all jobs contend.
		for _, fabSpec := range []struct {
			name string
			fab  *flexnet.Fabric
		}{
			{"Fat-tree", flexnet.NewSwitchFabric(topo.FatTree(n,
				cost.EquivalentFatTreeBandwidth(n, d, bw)))},
			{"OversubFatTree", flexnet.NewSwitchFabric(topo.OversubFatTree(n, rack, float64(d)*bw))},
			{"IdealSwitch", flexnet.NewSwitchFabric(topo.IdealSwitch(n, float64(d)*bw))},
		} {
			sched := cluster.NewScheduler(n)
			js, err := cluster.BuildMix(sched, cluster.MixSpec{Jobs: jobs, ServersPerJob: spj, Stride: rack})
			if err != nil {
				return b.String() + "error: " + err.Error()
			}
			times, err := cluster.RunShared(fabSpec.fab, js, p.Iterations, model.A100)
			if err != nil {
				return b.String() + "error: " + err.Error()
			}
			flat := cluster.Flatten(times)
			b.WriteString(row("", fabSpec.name,
				secs(stats.Mean(flat)), secs(stats.Percentile(flat, 99))))
		}
	}
	b.WriteString("paper: TopoOpt improves tail iteration time up to 3.4x vs Fat-tree at full load\n")
	return b.String()
}

// Fig17ReconfigLatency reproduces Figure 17: DLRM and BERT iteration time
// vs OCS reconfiguration latency, with and without host forwarding,
// against the static TopoOpt line.
func Fig17ReconfigLatency(p Params) string {
	var b strings.Builder
	n := p.Scale
	d := 8
	bw := 100e9
	b.WriteString(header("Figure 17",
		fmt.Sprintf("Reconfiguration latency sweep (%d servers, d=8, B=100G)", n)))
	models := []*model.Model{scaledDLRM(p), model.BERTPreset(model.Sec53)}
	latencies := []float64{1e-6, 10e-6, 100e-6, 1e-3, 10e-3}
	for _, m := range models {
		st := parallel.Hybrid(m, n)
		dem, err := traffic.FromStrategy(m, st, m.BatchPerGPU)
		if err != nil {
			return b.String() + "error: " + err.Error()
		}
		compute := st.MaxComputeTime(m, model.A100, m.BatchPerGPU)
		tf, err := core.TopologyFinder(core.Config{N: n, D: d, LinkBW: bw}, dem)
		if err != nil {
			return b.String() + "error: " + err.Error()
		}
		topoIt, err := flexnet.SimulateIteration(flexnet.NewTopoOptFabric(tf), dem, compute)
		if err != nil {
			return b.String() + "error: " + err.Error()
		}
		fmt.Fprintf(&b, "\n%s — TopoOpt (static): %s\n", m.Name, secs(topoIt.Total()))
		b.WriteString(row("reconfig latency", "OCS-FW", "OCS-noFW"))
		for _, lat := range latencies {
			vals := []string{fmt.Sprintf("%.0fus", lat*1e6)}
			for _, fw := range []bool{true, false} {
				cfg := flexnet.OCSRunConfig{N: n, D: d, LinkBW: bw,
					ReconfigLatency: lat, HostForwarding: fw}
				t, err := flexnet.SimulateOCSIteration(cfg, dem, compute)
				if err != nil {
					vals = append(vals, "err")
					continue
				}
				vals = append(vals, secs(t))
			}
			b.WriteString(row(vals...))
		}
	}
	b.WriteString("paper: 1us OCS-noFW matches TopoOpt; FW helps DLRM (all-to-all) but hurts BERT\n")
	return b.String()
}

// Fig19TestbedThroughput reproduces Figure 19: training throughput
// (samples/s) of the five §6 models on the 12-node prototype vs switch
// baselines.
func Fig19TestbedThroughput() string {
	var b strings.Builder
	b.WriteString(header("Figure 19", "Testbed training throughput (samples/second, 12 nodes)"))
	b.WriteString(row("model", "TopoOpt 4x25G", "Switch 100G", "Switch 25G"))
	for _, m := range testbed.Models() {
		vals := []string{m.Name}
		for _, s := range testbed.Setups() {
			r, err := testbed.Run(m, s, 0)
			if err != nil {
				vals = append(vals, "err")
				continue
			}
			vals = append(vals, fmt.Sprintf("%.0f", r.SamplesPerSecond))
		}
		b.WriteString(row(vals...))
	}
	b.WriteString("paper shape: TopoOpt ~= Switch 100G, Switch 25G lower\n")
	return b.String()
}

// Fig20TimeToAccuracy reproduces Figure 20: VGG19/ImageNet top-5
// time-to-accuracy curves on the three testbed fabrics.
func Fig20TimeToAccuracy() string {
	var b strings.Builder
	b.WriteString(header("Figure 20", "Time-to-accuracy, VGG19 on ImageNet (target 90% top-5)"))
	vgg := model.VGG(32, 19)
	b.WriteString(row("setup", "samples/s", "TTA (hours)"))
	var ttas []float64
	for _, s := range testbed.Setups() {
		r, err := testbed.Run(vgg, s, 32)
		if err != nil {
			return b.String() + "error: " + err.Error()
		}
		h, err := testbed.TimeToAccuracy(0.90, r.SamplesPerSecond)
		if err != nil {
			return b.String() + "error: " + err.Error()
		}
		ttas = append(ttas, h)
		b.WriteString(row(s.String(), fmt.Sprintf("%.0f", r.SamplesPerSecond),
			fmt.Sprintf("%.1f", h)))
	}
	fmt.Fprintf(&b, "TopoOpt vs Switch 25G speedup: %.1fx (paper: 2.0x)\n", ttas[2]/ttas[0])
	return b.String()
}

// Fig21TestbedAllToAll reproduces Figure 21: testbed iteration time vs
// batch size for the inflated-embedding DLRM.
func Fig21TestbedAllToAll() string {
	var b strings.Builder
	b.WriteString(header("Figure 21", "Testbed all-to-all impact (DLRM, 12 nodes)"))
	b.WriteString(row("batch", "a2a/AR ratio", "TopoOpt 4x25G", "Switch 100G", "Switch 25G"))
	for _, batch := range []int{32, 64, 128, 256, 512} {
		m := model.DLRMPreset(model.Sec6)
		st := parallel.Hybrid(m, testbed.Nodes)
		dem, err := traffic.FromStrategy(m, st, batch)
		if err != nil {
			return b.String() + "error: " + err.Error()
		}
		ratio := float64(dem.TotalMPBytes()) / float64(dem.TotalAllReduceBytes())
		vals := []string{fmt.Sprint(batch), fmt.Sprintf("%.0f%%", ratio*100)}
		for _, s := range testbed.Setups() {
			r, err := testbed.Run(m, s, batch)
			if err != nil {
				vals = append(vals, "err")
				continue
			}
			vals = append(vals, secs(r.IterationSeconds))
		}
		b.WriteString(row(vals...))
	}
	b.WriteString("paper: at bs=512 (78% a2a) TopoOpt is 1.6x faster than Switch 25G\n")
	return b.String()
}

// Tab02ComponentCosts reproduces Table 2.
func Tab02ComponentCosts() string {
	var b strings.Builder
	b.WriteString(header("Table 2", "Network component costs (USD)"))
	b.WriteString(row("Gbps", "transceiver", "NIC", "switch port", "patch port", "OCS port", "1x2 sw"))
	for _, t := range cost.Table2 {
		b.WriteString(row(fmt.Sprintf("%.0f", t.GbpsRate),
			fmt.Sprintf("%.0f", t.Transceiver), fmt.Sprintf("%.0f", t.NICPort),
			fmt.Sprintf("%.0f", t.ElectricalPort), fmt.Sprintf("%.0f", t.PatchPanelPort),
			fmt.Sprintf("%.0f", t.OCSPort), fmt.Sprintf("%.0f", t.OneByTwoSwitch)))
	}
	return b.String()
}

// FigA1DoubleBinaryTree reproduces Appendix A (Figures 22-24): DBT
// AllReduce heatmaps under label permutations.
func FigA1DoubleBinaryTree() string {
	var b strings.Builder
	b.WriteString(header("Figures 22-24 (Appendix A)", "Double binary tree AllReduce permutations"))
	n := 16
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	for trial, shift := range []int{0, 5, 11} {
		pi := make([]int, n)
		for i := range pi {
			pi[i] = (i + shift) % n
		}
		tm := traffic.NewMatrix(n)
		collective.DBT(tm, members, pi, 2e9)
		fmt.Fprintf(&b, "\npermutation %d (shift +%d): total %s, max %s\n",
			trial+1, shift, heatmap.Human(float64(tm.Total())), heatmap.Human(float64(tm.Max())))
		b.WriteString(heatmap.Render(tm))
	}
	b.WriteString("all permutations move identical volume (mutability, Appendix A)\n")
	return b.String()
}

// Fig28DegreeSensitivity reproduces Figure 28 (Appendix H): TopoOpt
// iteration time vs server degree for DLRM, CANDLE, BERT at 40 and
// 100 Gbps.
func Fig28DegreeSensitivity(p Params) string {
	var b strings.Builder
	b.WriteString(header("Figure 28 (Appendix H)", "Impact of server degree on TopoOpt"))
	models := []*model.Model{scaledDLRM(p), model.CANDLEPreset(model.Sec53),
		model.BERTPreset(model.Sec53)}
	for _, bw := range []float64{40e9, 100e9} {
		fmt.Fprintf(&b, "\n(B = %.0f Gbps)\n", bw/1e9)
		b.WriteString(row("model", "d=4", "d=6", "d=8", "d=10"))
		for _, m := range models {
			st := parallel.Hybrid(m, p.Scale)
			dem, err := traffic.FromStrategy(m, st, m.BatchPerGPU)
			if err != nil {
				return b.String() + "error: " + err.Error()
			}
			compute := st.MaxComputeTime(m, model.A100, m.BatchPerGPU)
			vals := []string{m.Name}
			for _, d := range []int{4, 6, 8, 10} {
				tf, err := core.TopologyFinder(core.Config{N: p.Scale, D: d, LinkBW: bw}, dem)
				if err != nil {
					vals = append(vals, "err")
					continue
				}
				it, err := flexnet.SimulateIteration(flexnet.NewTopoOptFabric(tf), dem, compute)
				if err != nil {
					vals = append(vals, "err")
					continue
				}
				vals = append(vals, secs(it.Total()))
			}
			b.WriteString(row(vals...))
		}
	}
	b.WriteString("paper: network-heavy models scale with degree; BERT is compute-bound\n")
	return b.String()
}
