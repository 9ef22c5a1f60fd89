package cost

import "testing"

func TestTierInterpolation(t *testing.T) {
	// Exact tier.
	tr := tierFor(100e9)
	if tr.Transceiver != 99 || tr.NICPort != 678 {
		t.Errorf("100G tier wrong: %+v", tr)
	}
	// Between 40 and 100: halfway at 70 Gbps.
	mid := tierFor(70e9)
	if mid.Transceiver <= 39 || mid.Transceiver >= 99 {
		t.Errorf("interpolated transceiver %v out of (39,99)", mid.Transceiver)
	}
	// Below bottom tier: flat.
	if tierFor(1e9).Transceiver != 20 {
		t.Error("sub-10G should use 10G prices")
	}
	// Above top: linear scaling.
	if got := tierFor(400e9).Transceiver; got != 396 {
		t.Errorf("400G transceiver = %v, want 2×198", got)
	}
	// Optical prices never scale with bandwidth.
	if tierFor(400e9).PatchPanelPort != 100 || tierFor(10e9).OCSPort != 520 {
		t.Error("optical port prices must be bandwidth-independent")
	}
}

func TestFatTreeK(t *testing.T) {
	cases := map[int]int{2: 2, 16: 4, 54: 6, 128: 8, 432: 12, 1024: 16, 2000: 20, 4394: 26}
	for n, want := range cases {
		if got := fatTreeK(n); got != want {
			t.Errorf("fatTreeK(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestOCSMoreExpensiveThanPatchPanel(t *testing.T) {
	// §5.2: OCS-based TopoOpt is ~1.33× patch-panel TopoOpt.
	pp := TopoOptPatchPanel(432, 4, 100e9)
	ocs := TopoOptOCS(432, 4, 100e9)
	r := ocs / pp
	if r <= 1.0 || r > 1.8 {
		t.Errorf("OCS/patch-panel ratio %v, want ~1.33", r)
	}
}

func TestIdealRoughly3xTopoOpt(t *testing.T) {
	// §5.2: Ideal Switch ≈ 3.2× TopoOpt on average. Accept 2–5×.
	for _, n := range []int{128, 432, 1024, 2000} {
		for _, cfg := range [][2]float64{{4, 100e9}, {8, 200e9}} {
			d := int(cfg[0])
			ideal := IdealSwitch(n, d, cfg[1])
			topoopt := TopoOptPatchPanel(n, d, cfg[1])
			r := ideal / topoopt
			if r < 2 || r > 5.5 {
				t.Errorf("n=%d d=%d: ideal/topoopt = %.2f, want ~3.2", n, d, r)
			}
		}
	}
}

func TestCostOrdering(t *testing.T) {
	// Figure 10: Expander cheapest, SiP-ML most expensive; TopoOpt ≈
	// equivalent Fat-tree by construction; Oversub < Ideal.
	n, d, b := 432, 4, 100e9
	exp := Expander(n, d, b)
	topoopt := TopoOptPatchPanel(n, d, b)
	ideal := IdealSwitch(n, d, b)
	oversub := OversubFatTree(n, d, b)
	sip := SiPML(n, d, b)
	if !(exp < topoopt && topoopt < ideal) {
		t.Errorf("ordering broken: expander %.3g topoopt %.3g ideal %.3g", exp, topoopt, ideal)
	}
	if !(oversub < ideal) {
		t.Errorf("oversub %.3g should undercut ideal %.3g", oversub, ideal)
	}
	if sip <= topoopt {
		t.Errorf("SiP-ML %.3g should exceed TopoOpt %.3g", sip, topoopt)
	}
}

func TestEquivalentFatTreeBandwidth(t *testing.T) {
	n, d, b := 128, 4, 100e9
	bft := EquivalentFatTreeBandwidth(n, d, b)
	if bft >= float64(d)*b {
		t.Errorf("equivalent bandwidth %.3g should be below d×B %.3g", bft, float64(d)*b)
	}
	if bft < 10e9 {
		t.Errorf("equivalent bandwidth %.3g implausibly low", bft)
	}
	// Cost parity within bisection tolerance.
	ftCost := FatTree(n, bft)
	toCost := TopoOptPatchPanel(n, d, b)
	if r := ftCost / toCost; r < 0.95 || r > 1.05 {
		t.Errorf("cost parity off: %v", r)
	}
}

func TestDirectConnectShape(t *testing.T) {
	// Expander is a full-degree direct-connect bill by definition.
	if Expander(128, 4, 100e9) != DirectConnect(128, 4, 100e9) {
		t.Error("Expander must equal the d-interface direct-connect bill")
	}
	// Linear in servers and interfaces.
	if 2*DirectConnect(128, 4, 100e9) != DirectConnect(256, 4, 100e9) {
		t.Error("direct-connect cost must be linear in n")
	}
	if 2*DirectConnect(128, 3, 100e9) != DirectConnect(128, 6, 100e9) {
		t.Error("direct-connect cost must be linear in interfaces")
	}
	// A torus consuming fewer interfaces than d must undercut the
	// d-regular expander.
	if DirectConnect(128, 4, 100e9) <= DirectConnect(128, 2, 100e9) {
		t.Error("fewer interfaces must cost less")
	}
}

func TestSiPRingBetweenExpanderAndSiPML(t *testing.T) {
	// The SiP-Ring estimate keeps photonic ports but drops the fabric-wide
	// switch premium: dearer than Expander, cheaper than SiP-ML at every
	// Table 2 scale and configuration.
	for _, n := range []int{128, 432, 1024, 2000} {
		for _, cfg := range []struct {
			d  int
			bw float64
		}{{4, 100e9}, {8, 200e9}} {
			ring := SiPRing(n, cfg.d, cfg.bw)
			exp := Expander(n, cfg.d, cfg.bw)
			sip := SiPML(n, cfg.d, cfg.bw)
			if !(exp < ring && ring < sip) {
				t.Errorf("n=%d d=%d: want Expander %.3g < SiP-Ring %.3g < SiP-ML %.3g",
					n, cfg.d, exp, ring, sip)
			}
		}
	}
}

func TestCostMonotoneInScale(t *testing.T) {
	prev := 0.0
	for _, n := range []int{128, 432, 1024, 2000} {
		c := TopoOptPatchPanel(n, 4, 100e9)
		if c <= prev {
			t.Errorf("cost not increasing at n=%d", n)
		}
		prev = c
	}
}

func TestSiPMLMostExpensive(t *testing.T) {
	// Figure 10: SiP-ML tops every scale at both configurations.
	for _, n := range []int{128, 432, 1024, 2000} {
		for _, cfg := range []struct {
			d  int
			bw float64
		}{{4, 100e9}, {8, 200e9}} {
			sip := SiPML(n, cfg.d, cfg.bw)
			ideal := IdealSwitch(n, cfg.d, cfg.bw)
			if sip <= ideal {
				t.Errorf("n=%d d=%d: SiP-ML %.3g should exceed Ideal %.3g", n, cfg.d, sip, ideal)
			}
		}
	}
}
