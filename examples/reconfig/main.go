// Reconfiguration-latency study: the §5.7 experiment at reduced scale.
// Sweeps OCS reconfiguration latency from 1 µs to 10 ms for a DLRM job,
// with and without host-based forwarding, against the static one-shot
// TopoOpt fabric — showing why TopoOpt uses one-shot reconfiguration with
// today's optics.
package main

import (
	"fmt"
	"log"

	"topoopt/internal/core"
	"topoopt/internal/flexnet"
	"topoopt/internal/model"
	"topoopt/internal/parallel"
	"topoopt/internal/traffic"
)

func main() {
	const (
		n  = 16
		d  = 8
		bw = 100e9
	)
	m := model.DLRM(model.DLRMConfig{BatchPerGPU: 128, DenseLayers: 8,
		DenseLayerSize: 2048, DenseFeatLayers: 8, FeatLayerSize: 2048,
		EmbedDim: 128, EmbedRows: 1e6, EmbedTables: 16})
	st := parallel.Hybrid(m, n)
	dem, err := traffic.FromStrategy(m, st, m.BatchPerGPU)
	if err != nil {
		log.Fatal(err)
	}
	compute := st.MaxComputeTime(m, model.A100, m.BatchPerGPU)

	tf, err := core.TopologyFinder(core.Config{N: n, D: d, LinkBW: bw}, dem)
	if err != nil {
		log.Fatal(err)
	}
	static, err := flexnet.SimulateIteration(flexnet.NewTopoOptFabric(tf), dem, compute)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TopoOpt (one-shot reconfiguration): %.4gs per iteration\n\n", static.Total())
	fmt.Printf("%-18s %14s %14s\n", "reconfig latency", "OCS-FW", "OCS-noFW")
	for _, lat := range []float64{1e-6, 10e-6, 100e-6, 1e-3, 10e-3} {
		rowVals := make([]string, 2)
		for i, fw := range []bool{true, false} {
			cfg := flexnet.OCSRunConfig{N: n, D: d, LinkBW: bw,
				ReconfigLatency: lat, HostForwarding: fw}
			t, err := flexnet.SimulateOCSIteration(cfg, dem, compute)
			if err != nil {
				log.Fatal(err)
			}
			rowVals[i] = fmt.Sprintf("%.4gs", t)
		}
		fmt.Printf("%-18s %14s %14s\n", fmt.Sprintf("%.0f us", lat*1e6), rowVals[0], rowVals[1])
	}
	fmt.Println("\nshape: today's 10 ms OCSs pay heavily per reconfiguration;")
	fmt.Println("~1 us switching would match the one-shot TopoOpt fabric (§5.7).")
}
