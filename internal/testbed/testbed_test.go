package testbed

import (
	"testing"

	"topoopt/internal/model"
)

func TestRunAllModelsAllSetups(t *testing.T) {
	for _, m := range Models() {
		var results []Result
		for _, s := range Setups() {
			r, err := Run(m, s, 0)
			if err != nil {
				t.Fatalf("%s on %s: %v", m.Name, s, err)
			}
			if r.IterationSeconds <= 0 || r.SamplesPerSecond <= 0 {
				t.Fatalf("%s on %s: non-positive result %+v", m.Name, s, r)
			}
			results = append(results, r)
		}
		topoOpt, sw100, sw25 := results[0], results[1], results[2]
		// Figure 19 shape: TopoOpt ≈ Switch 100G; Switch 25G slower or
		// equal (compute-bound models tie).
		if sw25.SamplesPerSecond > sw100.SamplesPerSecond*1.01 {
			t.Errorf("%s: 25G switch (%.1f samp/s) should not beat 100G (%.1f)",
				m.Name, sw25.SamplesPerSecond, sw100.SamplesPerSecond)
		}
		if topoOpt.SamplesPerSecond < sw25.SamplesPerSecond*0.9 {
			t.Errorf("%s: TopoOpt (%.1f samp/s) should be at least near 25G switch (%.1f)",
				m.Name, topoOpt.SamplesPerSecond, sw25.SamplesPerSecond)
		}
		// TopoOpt should recover most of the 100G switch's throughput
		// (paper: "similar to Switch 100Gbps for all models").
		if topoOpt.SamplesPerSecond < sw100.SamplesPerSecond*0.4 {
			t.Errorf("%s: TopoOpt (%.1f) too far below 100G switch (%.1f)",
				m.Name, topoOpt.SamplesPerSecond, sw100.SamplesPerSecond)
		}
	}
}

func TestSetupStrings(t *testing.T) {
	for _, s := range Setups() {
		if s.String() == "unknown" {
			t.Errorf("setup %d unnamed", s)
		}
	}
	if Setup(9).String() != "unknown" {
		t.Error("invalid setup should be unknown")
	}
}

func TestTimeToAccuracy(t *testing.T) {
	h1, err := TimeToAccuracy(0.90, 1000)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := TimeToAccuracy(0.90, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if h2 >= h1 {
		t.Errorf("double throughput should halve TTA: %g vs %g", h1, h2)
	}
	if h1/h2 < 1.9 || h1/h2 > 2.1 {
		t.Errorf("TTA ratio %g, want 2.0", h1/h2)
	}
	if _, err := TimeToAccuracy(0.99, 1000); err == nil {
		t.Error("unreachable accuracy should error")
	}
}

// TestAccuracyCurveMonotone: TimeToAccuracy returns the first epoch of
// the VGG19 trajectory that reaches the target, which is the fastest
// only if the trajectory rises strictly in both epoch and accuracy.
func TestAccuracyCurveMonotone(t *testing.T) {
	if len(vgg19Top5) == 0 {
		t.Fatal("empty accuracy trajectory")
	}
	for i := 1; i < len(vgg19Top5); i++ {
		prev, pt := vgg19Top5[i-1], vgg19Top5[i]
		if pt.Epoch <= prev.Epoch || pt.Acc <= prev.Acc {
			t.Fatalf("trajectory not strictly increasing at %+v after %+v", pt, prev)
		}
	}
}

func TestFigure20Shape(t *testing.T) {
	// TopoOpt 4×25 reaches 90% top-5 much faster than Switch 25G and about
	// as fast as Switch 100G (Figure 20: 2.0× faster than 25G).
	vgg := model.VGG(32, 19)
	var tta [3]float64
	for i, s := range Setups() {
		r, err := Run(vgg, s, 32)
		if err != nil {
			t.Fatal(err)
		}
		h, err := TimeToAccuracy(0.90, r.SamplesPerSecond)
		if err != nil {
			t.Fatal(err)
		}
		tta[i] = h
	}
	if tta[0] > tta[2] {
		t.Errorf("TopoOpt TTA %g h should beat Switch 25G %g h", tta[0], tta[2])
	}
	speedup := tta[2] / tta[0]
	if speedup < 1.1 || speedup > 4 {
		t.Errorf("TopoOpt vs 25G speedup %.2f, paper reports ~2.0", speedup)
	}
}
