package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"topoopt/internal/core"
	"topoopt/internal/fleet"
	"topoopt/internal/flexnet"
	"topoopt/internal/graph"
	"topoopt/internal/route"
	"topoopt/internal/stats"
	"topoopt/internal/traffic"
)

// ExtMoETimeVaryingTraffic demonstrates the §7 limitation honestly:
// TopoOpt assumes the traffic pattern is identical across iterations,
// which Mixture-of-Experts gating breaks. We draw per-iteration random
// expert-routing matrices and compare the static TopoOpt fabric
// (optimized for the average pattern) against a per-iteration
// OCS-reconfig fabric at two switching speeds.
func ExtMoETimeVaryingTraffic(p Params) string {
	var b strings.Builder
	b.WriteString(header("Extension (§7 limitation)", "MoE-style time-varying traffic"))
	n := 16
	d := 4
	bw := 100e9
	iters := 5
	rng := rand.New(rand.NewSource(p.Seed))

	// Average demand: uniform all-to-all expert traffic + a dense
	// AllReduce group.
	avg := traffic.Demand{N: n, MP: traffic.NewMatrix(n)}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	avg.Groups = []traffic.Group{{Members: all, Bytes: 200e6}}
	perPair := int64(8e6)
	for s := 0; s < n; s++ {
		for dd := 0; dd < n; dd++ {
			avg.MP.Add(s, dd, perPair)
		}
	}
	tf, err := core.TopologyFinder(core.Config{N: n, D: d, LinkBW: bw}, avg)
	if err != nil {
		return b.String() + "error: " + err.Error()
	}
	staticFab := flexnet.NewTopoOptFabric(tf)

	// Per-iteration demand: each server routes its tokens to 2 random
	// experts, concentrating the MP matrix differently every iteration.
	draw := func() traffic.Demand {
		dem := traffic.Demand{N: n, MP: traffic.NewMatrix(n), Groups: avg.Groups}
		for s := 0; s < n; s++ {
			for e := 0; e < 2; e++ {
				dst := rng.Intn(n)
				for dst == s {
					dst = rng.Intn(n)
				}
				dem.MP.Add(s, dst, perPair*int64(n)/2)
				dem.MP.Add(dst, s, perPair*int64(n)/2)
			}
		}
		return dem
	}
	var staticTimes, ocsFast, ocsSlow []float64
	for it := 0; it < iters; it++ {
		dem := draw()
		st, err := flexnet.SimulateIteration(staticFab, dem, 0.002)
		if err != nil {
			return b.String() + "error: " + err.Error()
		}
		staticTimes = append(staticTimes, st.Total())
		for _, cfg := range []struct {
			lat  float64
			dest *[]float64
		}{{1e-6, &ocsFast}, {10e-3, &ocsSlow}} {
			t2, err := flexnet.SimulateOCSIteration(flexnet.OCSRunConfig{
				N: n, D: d, LinkBW: bw, ReconfigLatency: cfg.lat,
				HostForwarding: true,
			}, dem, 0.002)
			if err != nil {
				return b.String() + "error: " + err.Error()
			}
			*cfg.dest = append(*cfg.dest, t2)
		}
	}
	b.WriteString(row("fabric", "mean iter", "max iter"))
	b.WriteString(row("TopoOpt (static)", secs(stats.Mean(staticTimes)), secs(stats.Max(staticTimes))))
	b.WriteString(row("OCS 1us (ideal)", secs(stats.Mean(ocsFast)), secs(stats.Max(ocsFast))))
	b.WriteString(row("OCS 10ms (today)", secs(stats.Mean(ocsSlow)), secs(stats.Max(ocsSlow))))
	b.WriteString("the static fabric loses to a hypothetical fast OCS on shifting MoE traffic\n")
	b.WriteString("but beats today's 10 ms switches — the paper's case for one-shot reconfiguration\n")
	return b.String()
}

// ExtDynamicArrivals quantifies the Appendix C look-ahead design: job
// start delay under cold patch-panel, look-ahead patch-panel and OCS
// provisioning for a Poisson-ish arrival sequence.
func ExtDynamicArrivals(p Params) string {
	var b strings.Builder
	b.WriteString(header("Extension (Appendix C)", "Dynamic job arrivals and look-ahead provisioning"))
	rows, err := dynamicArrivals(p.Seed)
	if err != nil {
		return b.String() + "error: " + err.Error()
	}
	b.WriteString(row("provisioning", "mean delay", "p99 delay"))
	for _, r := range rows {
		b.WriteString(row(r.label,
			fmt.Sprintf("%.1fs", stats.Mean(r.delays)),
			fmt.Sprintf("%.1fs", stats.Percentile(r.delays, 99))))
	}
	b.WriteString("look-ahead hides the robotic patch latency behind the previous job's run\n")
	return b.String()
}

// arrivalRow is one provisioning design's per-job start delays (queueing
// for servers plus topology activation), in seconds.
type arrivalRow struct {
	label  string
	delays []float64
}

// dynamicArrivals runs ExtDynamicArrivals' trace through the fleet
// engine once per provisioning design (cold patch panel, look-ahead, OCS,
// in that order): 20 jobs arriving 200–600 s apart on a 64-server FIFO
// cluster, each reserving 8 servers for 30–90 minutes. Fixed-duration
// jobs never build a fabric, so the architecture fields only satisfy
// Spec validation.
func dynamicArrivals(seed int64) ([]arrivalRow, error) {
	rng := rand.New(rand.NewSource(seed))
	var jobs []fleet.JobSpec
	at := 0.0
	for i := 0; i < 20; i++ {
		at += 200 + rng.Float64()*400 // 200-600 s inter-arrival
		jobs = append(jobs, fleet.JobSpec{
			AtS: at, Workers: 8, FixedDurationS: 1800 + rng.Float64()*3600,
		})
	}
	var rows []arrivalRow
	for _, mode := range []struct{ label, prov string }{
		{"patch panel (cold)", fleet.ProvPatch},
		{"patch panel + look-ahead", fleet.ProvLookahead},
		{"OCS", fleet.ProvOCS},
	} {
		res, err := fleet.Run(context.Background(), fleet.Spec{
			Servers: 64, Degree: 4, LinkBandwidth: 100e9, Arch: "TopoOpt",
			Policy: fleet.PolicyFIFO, Provisioning: mode.prov,
			Trace: fleet.TraceSpec{Inline: jobs},
		})
		if err != nil {
			return nil, err
		}
		r := arrivalRow{label: mode.label, delays: make([]float64, len(res.Jobs))}
		for i, j := range res.Jobs {
			r.delays[i] = j.QueueDelayS
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// ExtRoutingTE runs the §5.5 future-work experiment: multipath traffic
// engineering on the TopoOpt fabric, reporting max/mean link load and the
// α slowdown factor against single-path routing (compare Figure 15's
// imbalance).
func ExtRoutingTE(p Params) string {
	var b strings.Builder
	b.WriteString(header("Extension (§5.5)", "Multipath traffic engineering for forwarded MP traffic"))
	n := p.Scale
	_, _, dem, err := allToAllSetup(n, 512)
	if err != nil {
		return b.String() + "error: " + err.Error()
	}
	for _, d := range []int{4, 8} {
		tf, err := core.TopologyFinder(core.Config{N: n, D: d, LinkBW: 100e9}, dem)
		if err != nil {
			return b.String() + "error: " + err.Error()
		}
		// Single-path baseline.
		loads := tf.Routes.LinkLoads(dem.MP)
		var singleMax int64
		var sum float64
		for _, v := range loads {
			if v > singleMax {
				singleMax = v
			}
			sum += float64(v)
		}
		singleMean := sum / float64(len(loads))
		// TE over each MP pair's three shortest paths.
		g := tf.Network.G
		sr := graph.NewSearcher(g)
		cands := make(map[[2]int][][]int)
		for s := range dem.MP {
			for t, bytes := range dem.MP[s] {
				if bytes == 0 || s == t {
					continue
				}
				for _, p := range sr.KShortestPaths(s, t, 3, graph.UnitWeight) {
					cands[[2]int{s, t}] = append(cands[[2]int{s, t}], p.Nodes(g, s))
				}
			}
		}
		res, err := route.Balance(dem.MP, cands, 2000)
		if err != nil {
			return b.String() + "error: " + err.Error()
		}
		fmt.Fprintf(&b, "\nd=%d:\n", d)
		b.WriteString(row("routing", "max link", "mean link", "alpha"))
		b.WriteString(row("single path",
			fmt.Sprintf("%.1fMB", float64(singleMax)/1e6),
			fmt.Sprintf("%.1fMB", singleMean/1e6),
			fmt.Sprintf("%.2f", tf.Routes.BandwidthTax(dem.MP))))
		b.WriteString(row("TE (min-max)",
			fmt.Sprintf("%.1fMB", float64(res.MaxLinkLoad)/1e6),
			fmt.Sprintf("%.1fMB", res.MeanLinkLoad/1e6),
			fmt.Sprintf("%.2f", res.Alpha)))
	}
	b.WriteString("TE narrows the max/mean gap of Figure 15; α approaches the average path length\n")
	return b.String()
}
