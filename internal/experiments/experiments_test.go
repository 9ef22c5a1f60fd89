package experiments

import (
	"strings"
	"testing"

	"topoopt/internal/stats"
)

// tiny params keep the experiment smoke tests fast.
var tiny = Params{Scale: 16, SharedScale: 32, ServersPerJob: 8,
	MCMCIters: 10, Iterations: 1, Seed: 1}

func checkOutput(t *testing.T, name, out string, wants ...string) {
	t.Helper()
	if strings.Contains(out, "err") && !strings.Contains(out, "error") {
		// per-cell "err" entries indicate a broken experiment
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "err") && !strings.Contains(line, "error") {
				t.Errorf("%s: error cell in %q", name, line)
			}
		}
	}
	if strings.Contains(out, "error:") {
		t.Fatalf("%s failed:\n%s", name, out)
	}
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Errorf("%s: missing %q in output", name, w)
		}
	}
}

func TestFig01(t *testing.T) {
	out := Fig01DLRMHeatmaps()
	checkOutput(t, "fig01", out, "Data parallelism", "Hybrid parallelism", "max-transfer reduction")
	// The data-parallel max transfer must exceed the hybrid one by ~10x.
	if !strings.Contains(out, "GB") {
		t.Error("expected GB-scale transfers")
	}
}

func TestFig02(t *testing.T) {
	checkOutput(t, "fig02", Fig02ProductionCDFs(), "Recommendation", "top 10%")
}

func TestFig03(t *testing.T) {
	checkOutput(t, "fig03", Fig03NetworkOverhead(tiny), "128 GPUs", "DLRM")
}

func TestFig04(t *testing.T) {
	checkOutput(t, "fig04", Fig04ProductionHeatmaps(), "ring-dominant=true")
}

func TestTab01(t *testing.T) {
	checkOutput(t, "tab01", Tab01OpticalTech(), "Patch Panel", "1008")
}

func TestFig07(t *testing.T) {
	checkOutput(t, "fig07", Fig07RingPermutations(), "\"+1\" permutation", "\"+7\" permutation")
}

func TestFig09(t *testing.T) {
	out := Fig09TopoOptTopology()
	checkOutput(t, "fig09", out, "permutations", "degree split", "diameter")
	if !strings.Contains(out, "[1 3 7]") {
		t.Errorf("expected the paper's +1,+3,+7 selection, got:\n%s", out)
	}
}

func TestFig10(t *testing.T) {
	checkOutput(t, "fig10", Fig10CostComparison(), "Ideal/TopoOpt", "n=2000")
}

func TestFig12Tiny(t *testing.T) {
	checkOutput(t, "fig12", Fig12AllToAll(tiny), "d=4", "d=8", "a2a/AR ratio")
}

func TestFig13Tiny(t *testing.T) {
	checkOutput(t, "fig13", Fig13BandwidthTax(tiny), "d=4", "d=8")
}

func TestFig14Tiny(t *testing.T) {
	checkOutput(t, "fig14", Fig14PathLengthCDF(tiny), "d=4", "d=8")
}

func TestFig15Tiny(t *testing.T) {
	checkOutput(t, "fig15", Fig15LinkTrafficCDF(tiny), "batch size 128", "imbalance")
}

func TestFig16Tiny(t *testing.T) {
	checkOutput(t, "fig16", Fig16SharedCluster(tiny), "TopoOpt", "Fat-tree", "100%")
}

func TestFig17Tiny(t *testing.T) {
	checkOutput(t, "fig17", Fig17ReconfigLatency(tiny), "OCS-FW", "OCS-noFW", "TopoOpt (static)")
}

func TestFig19(t *testing.T) {
	checkOutput(t, "fig19", Fig19TestbedThroughput(), "TopoOpt 4x25G", "ResNet50")
}

func TestFig20(t *testing.T) {
	checkOutput(t, "fig20", Fig20TimeToAccuracy(), "TTA", "speedup")
}

func TestFig21(t *testing.T) {
	checkOutput(t, "fig21", Fig21TestbedAllToAll(), "a2a/AR ratio", "512")
}

func TestTab02(t *testing.T) {
	checkOutput(t, "tab02", Tab02ComponentCosts(), "transceiver", "200")
}

func TestFigA1(t *testing.T) {
	checkOutput(t, "figA1", FigA1DoubleBinaryTree(), "identical volume")
}

func TestFig28Tiny(t *testing.T) {
	checkOutput(t, "fig28", Fig28DegreeSensitivity(tiny), "d=10", "BERT")
}

func TestAblations(t *testing.T) {
	checkOutput(t, "selectperms", AblationSelectPerms(tiny), "geometric", "random")
	checkOutput(t, "mpdiscount", AblationMPDiscount(tiny), "halving")
	checkOutput(t, "alternating", AblationAlternating(tiny), "alternating", "sequential")
	checkOutput(t, "mcmc", AblationMCMCBudget(tiny), "800")
	checkOutput(t, "multiring", AblationMultiRing(tiny), "speedup")
	checkOutput(t, "coinchange", AblationCoinChange(tiny), "coin-change")
}

func TestExtTotientPermsFatTree(t *testing.T) {
	checkOutput(t, "ext-fattree", ExtTotientPermsFatTree(tiny),
		"TotientPerms x4", "full-bisection control")
}

func TestExtMoETimeVarying(t *testing.T) {
	checkOutput(t, "ext-moe", ExtMoETimeVaryingTraffic(tiny),
		"TopoOpt (static)", "OCS 1us")
}

func TestExtDynamicArrivals(t *testing.T) {
	checkOutput(t, "ext-arrivals", ExtDynamicArrivals(tiny),
		"look-ahead", "OCS")
}

// TestExtDynamicArrivalsLookaheadClaim checks Appendix C's claim on the
// ext-arrivals trace at quick scale: wiring the next topology on the
// look-ahead plane while the previous job trains hides most of the 120 s
// patch-panel reconfiguration (the mean start delay falls by at least
// half of it), and only an OCS, switching in milliseconds, does as well
// or better.
func TestExtDynamicArrivalsLookaheadClaim(t *testing.T) {
	rows, err := dynamicArrivals(Quick.Seed)
	if err != nil {
		t.Fatal(err)
	}
	const patchLatencyS = 120
	cold, la, ocs := stats.Mean(rows[0].delays), stats.Mean(rows[1].delays), stats.Mean(rows[2].delays)
	if cold-la < patchLatencyS/2 {
		t.Errorf("look-ahead mean delay %.1fs is within %d s of the cold patch panel's %.1fs",
			la, patchLatencyS/2, cold)
	}
	if ocs > la {
		t.Errorf("OCS mean delay %.1fs above look-ahead's %.1fs", ocs, la)
	}
}

func TestExtRoutingTE(t *testing.T) {
	out := ExtRoutingTE(tiny)
	checkOutput(t, "ext-te", out, "single path", "TE (min-max)")
}

// TestRepeatedRunsIdentical asserts the seed-determinism guarantee at the
// experiment level: regenerating the same figures twice in one process
// must produce byte-identical text. The simulator iterates slices (never
// maps), so there is no run-to-run rate residue.
func TestRepeatedRunsIdentical(t *testing.T) {
	gens := map[string]func() string{
		"fig12": func() string { return Fig12AllToAll(tiny) },
		"fig13": func() string { return Fig13BandwidthTax(tiny) },
		"fig16": func() string { return Fig16SharedCluster(tiny) },
		"fig17": func() string { return Fig17ReconfigLatency(tiny) },
	}
	for name, gen := range gens {
		if a, b := gen(), gen(); a != b {
			t.Errorf("%s: repeated runs differ", name)
		}
	}
}
