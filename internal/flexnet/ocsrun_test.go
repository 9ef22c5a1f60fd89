package flexnet

import (
	"testing"

	"topoopt/internal/core"
	"topoopt/internal/model"
	"topoopt/internal/parallel"
	"topoopt/internal/traffic"
)

func ocsDemand(t *testing.T, n int) traffic.Demand {
	t.Helper()
	m := model.DLRM(model.DLRMConfig{BatchPerGPU: 64, DenseLayers: 2, DenseLayerSize: 1024,
		DenseFeatLayers: 2, FeatLayerSize: 1024, EmbedDim: 128, EmbedRows: 1e6, EmbedTables: 8})
	st := parallel.Hybrid(m, n)
	dem, err := traffic.FromStrategy(m, st, 64)
	if err != nil {
		t.Fatal(err)
	}
	return dem
}

func TestOCSIterationCompletes(t *testing.T) {
	dem := ocsDemand(t, 8)
	cfg := OCSRunConfig{N: 8, D: 4, LinkBW: 100e9, ReconfigLatency: 10e-3,
		HostForwarding: true}
	tm, err := SimulateOCSIteration(cfg, dem, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if tm <= 0.001 {
		t.Errorf("iteration time %g should exceed compute time", tm)
	}
}

func TestReconfigLatencyMonotone(t *testing.T) {
	// Figure 17 shape: higher reconfiguration latency → slower iteration.
	dem := ocsDemand(t, 8)
	prev := 0.0
	for _, lat := range []float64{1e-6, 100e-6, 1e-3, 10e-3} {
		cfg := OCSRunConfig{N: 8, D: 4, LinkBW: 100e9, ReconfigLatency: lat,
			HostForwarding: true}
		tm, err := SimulateOCSIteration(cfg, dem, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tm < prev {
			t.Errorf("latency %g: iteration %g faster than at lower latency %g", lat, tm, prev)
		}
		prev = tm
	}
}

func TestOCSLowLatencyApproachesTopoOpt(t *testing.T) {
	// At 1 µs reconfiguration, OCS-reconfig-noFW should be in the same
	// ballpark as the one-shot TopoOpt fabric (§5.7).
	dem := ocsDemand(t, 8)
	cfg := OCSRunConfig{N: 8, D: 4, LinkBW: 100e9, ReconfigLatency: 1e-6,
		HostForwarding: false}
	ocsTime, err := SimulateOCSIteration(cfg, dem, 0)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := core.TopologyFinder(core.Config{N: 8, D: 4, LinkBW: 100e9}, dem)
	if err != nil {
		t.Fatal(err)
	}
	topoTime, err := SimulateIteration(NewTopoOptFabric(tf), dem, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ocsTime > topoTime.Total()*5 {
		t.Errorf("1µs OCS %g too far from TopoOpt %g", ocsTime, topoTime.Total())
	}
}

func TestOCSNoFWBlockedWithoutCircuitsEventuallyProgresses(t *testing.T) {
	// All-to-all demand with degree 1: only one circuit per node per
	// round, but successive rounds rotate circuits so everything drains.
	n := 4
	dem := traffic.Demand{N: n, MP: traffic.NewMatrix(n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				dem.MP.Add(i, j, 1e6)
			}
		}
	}
	cfg := OCSRunConfig{N: n, D: 1, LinkBW: 100e9, ReconfigLatency: 1e-5,
		HostForwarding: false}
	tm, err := SimulateOCSIteration(cfg, dem, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tm <= 0 {
		t.Error("should take time")
	}
}

func TestSiPMLVariantRuns(t *testing.T) {
	// SiP-ML per Appendix F: unit discount, 25 µs reconfiguration, noFW.
	dem := ocsDemand(t, 8)
	cfg := OCSRunConfig{N: 8, D: 4, LinkBW: 100e9, ReconfigLatency: 25e-6,
		HostForwarding: false, Discount: core.UnitDiscount}
	tm, err := SimulateOCSIteration(cfg, dem, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tm <= 0 {
		t.Error("SiP-ML variant should take time")
	}
}
