package core

import (
	"math/rand"
	"testing"
)

func uniformDemand(n int, v float64) [][]float64 {
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = v
			}
		}
	}
	return d
}

func TestOCSReconfigDegreeBound(t *testing.T) {
	n, d := 16, 4
	rng := rand.New(rand.NewSource(3))
	dem := make([][]float64, n)
	for i := range dem {
		dem[i] = make([]float64, n)
		for j := range dem[i] {
			if i != j {
				dem[i][j] = rng.Float64() * 1e9
			}
		}
	}
	nw := OCSReconfig(n, d, 100e9, dem, ExponentialDiscount, true)
	for v := 0; v < n; v++ {
		if nw.G.OutDegree(v) > d {
			t.Errorf("node %d out-degree %d > %d", v, nw.G.OutDegree(v), d)
		}
		if nw.G.InDegree(v) > d {
			t.Errorf("node %d in-degree %d > %d", v, nw.G.InDegree(v), d)
		}
	}
	if !nw.G.Connected() {
		t.Error("fabric should be connected after two-edge replacement")
	}
}

func TestOCSReconfigServesTopDemand(t *testing.T) {
	n := 8
	dem := uniformDemand(n, 1)
	dem[2][5] = 1e12 // dominant pair
	nw := OCSReconfig(n, 2, 100e9, dem, ExponentialDiscount, false)
	if !nw.G.HasEdge(2, 5) {
		t.Error("dominant pair should get a direct link")
	}
}

func TestOCSReconfigDiscountLimitsParallelLinks(t *testing.T) {
	n := 4
	dem := uniformDemand(n, 3)
	dem[0][1] = 10 // heavy but should not absorb all 4 interfaces
	nwExp := OCSReconfig(n, 4, 1e9, dem, ExponentialDiscount, false)
	nwUnit := OCSReconfig(n, 4, 1e9, dem, UnitDiscount, false)
	if nwExp.G.Multiplicity(0, 1) >= nwUnit.G.Multiplicity(0, 1) {
		t.Errorf("exponential discount (%d links) should allocate fewer parallel links than unit (%d)",
			nwExp.G.Multiplicity(0, 1), nwUnit.G.Multiplicity(0, 1))
	}
}

func TestOCSReconfigEmptyDemand(t *testing.T) {
	nw := OCSReconfig(6, 2, 1e9, uniformDemand(6, 0), nil, false)
	if nw.G.M() != 0 {
		t.Errorf("no demand should build no links, got %d", nw.G.M())
	}
}

func TestOCSReconfigConnectivityRepair(t *testing.T) {
	// Demand that naturally forms two cliques.
	n := 8
	dem := make([][]float64, n)
	for i := range dem {
		dem[i] = make([]float64, n)
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				dem[i][j] = 1e9
				dem[i+4][j+4] = 1e9
			}
		}
	}
	nw := OCSReconfig(n, 3, 1e9, dem, ExponentialDiscount, true)
	if !nw.G.Connected() {
		t.Error("two-clique demand should be connected after repair")
	}
	nwNo := OCSReconfig(n, 3, 1e9, dem, ExponentialDiscount, false)
	if nwNo.G.Connected() {
		t.Log("note: fabric connected even without repair (matching spill)")
	}
}

func TestDemandFromMatrix(t *testing.T) {
	tm := [][]int64{{0, 5}, {7, 0}}
	d := DemandFromMatrix(tm)
	if d[0][1] != 5 || d[1][0] != 7 {
		t.Errorf("conversion wrong: %v", d)
	}
}

func TestDiscountFunctions(t *testing.T) {
	if ExponentialDiscount(1) != 0.5 || ExponentialDiscount(2) != 0.25 {
		t.Error("exponential discount values wrong")
	}
	if UnitDiscount(7) != 1 {
		t.Error("unit discount should always be 1")
	}
}
