package topo

import (
	"testing"
)

func TestIdealSwitch(t *testing.T) {
	nw := IdealSwitch(8, 400e9)
	if nw.G.N() != 9 || nw.Hosts != 8 {
		t.Fatalf("nodes=%d hosts=%d", nw.G.N(), nw.Hosts)
	}
	if !nw.G.Connected() {
		t.Error("ideal switch must be connected")
	}
	d, _ := nw.G.Diameter()
	if d != 2 {
		t.Errorf("diameter = %d, want 2 (server-switch-server)", d)
	}
	for v := 0; v < 8; v++ {
		if nw.G.OutDegree(v) != 1 {
			t.Errorf("server %d degree %d, want 1", v, nw.G.OutDegree(v))
		}
		if nw.G.Edge(nw.G.Out(v)[0]).Cap != 400e9 {
			t.Error("wrong uplink capacity")
		}
	}
}

func TestFatTreeIsNonBlocking(t *testing.T) {
	nw := FatTree(16, 100e9)
	if nw.Name != "Fat-tree" {
		t.Error("name should be Fat-tree")
	}
	if nw.ForwardingHosts {
		t.Error("fat-tree hosts must not forward")
	}
}

func TestOversubFatTree(t *testing.T) {
	nw := OversubFatTree(16, 4, 100e9)
	// 16 servers + 4 ToRs + core.
	if nw.G.N() != 21 {
		t.Fatalf("nodes = %d, want 21", nw.G.N())
	}
	if !nw.G.Connected() {
		t.Error("must be connected")
	}
	// ToR uplink = 4 servers × 100G / 2 = 200G.
	tor := 16
	var uplink float64
	for _, id := range nw.G.Out(tor) {
		e := nw.G.Edge(id)
		if e.To == 20 {
			uplink = e.Cap
		}
	}
	if uplink != 200e9 {
		t.Errorf("ToR uplink = %g, want 200e9", uplink)
	}
	// Uneven last rack.
	nw2 := OversubFatTree(10, 4, 100e9)
	if !nw2.G.Connected() {
		t.Error("uneven rack fabric must be connected")
	}
}

func TestExpanderRegularAndConnected(t *testing.T) {
	for _, d := range []int{2, 4, 8} {
		nw, err := Expander(32, d, 25e9, 7)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 32; v++ {
			if nw.G.OutDegree(v) != d {
				t.Errorf("d=%d: node %d degree %d", d, v, nw.G.OutDegree(v))
			}
		}
		if !nw.G.Connected() {
			t.Errorf("d=%d expander disconnected", d)
		}
		if !degreeOK(nw, d) || degreeOK(nw, d-1) {
			t.Errorf("d=%d: degree bound check wrong", d)
		}
	}
}

func TestExpanderOddDegree(t *testing.T) {
	nw, err := Expander(16, 3, 10e9, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 16; v++ {
		if nw.G.OutDegree(v) != 3 {
			t.Errorf("node %d degree %d, want 3", v, nw.G.OutDegree(v))
		}
	}
	if _, err := Expander(15, 3, 10e9, 1); err == nil {
		t.Error("odd degree × odd n should fail")
	}
	if _, err := Expander(8, 1, 10e9, 1); err == nil {
		t.Error("degree 1 should fail")
	}
}

func TestExpanderDeterministic(t *testing.T) {
	a, _ := Expander(24, 4, 1e9, 42)
	b, _ := Expander(24, 4, 1e9, 42)
	ea, eb := a.G.Edges(), b.G.Edges()
	if len(ea) != len(eb) {
		t.Fatal("edge counts differ")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	c, _ := Expander(24, 4, 1e9, 43)
	same := true
	for i, e := range c.G.Edges() {
		if e != ea[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds gave identical expander")
	}
}

func TestPhysicalRing(t *testing.T) {
	nw := PhysicalRing(16, 4, 50e9)
	for v := 0; v < 16; v++ {
		if nw.G.OutDegree(v) != 4 {
			t.Errorf("node %d degree %d, want 4", v, nw.G.OutDegree(v))
		}
	}
	if !nw.G.Connected() {
		t.Error("ring disconnected")
	}
	// Antipodal offset case: n=8, d=8 includes offset 4 = n/2.
	nw2 := PhysicalRing(8, 8, 1e9)
	if !nw2.G.Connected() {
		t.Error("antipodal ring disconnected")
	}
	for v := 0; v < 8; v++ {
		if got := nw2.G.OutDegree(v); got != 7 {
			// offsets 1,2,3 give 6 plus antipode gives 1 → 7 (degree capped
			// by distinct neighbors on an 8-ring).
			t.Errorf("node %d degree %d, want 7", v, got)
		}
	}
}

func TestDirectConnect(t *testing.T) {
	nw := DirectConnect(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, 25e9)
	if !nw.G.Connected() {
		t.Error("disconnected")
	}
	if !nw.ForwardingHosts {
		t.Error("direct-connect hosts must forward")
	}
	for v := 0; v < 4; v++ {
		if nw.G.OutDegree(v) != 2 {
			t.Errorf("node %d degree %d, want 2", v, nw.G.OutDegree(v))
		}
	}
}

func TestTorusDims(t *testing.T) {
	cases := []struct {
		n, d int
		want []int
	}{
		{16, 4, []int{4, 4}},    // square 2D
		{12, 4, []int{3, 4}},    // rectangular 2D
		{9, 4, []int{3, 3}},     // odd square
		{7, 4, []int{7}},        // prime n degenerates to a ring
		{16, 2, []int{16}},      // degree budget 2 forces a ring
		{27, 6, []int{3, 3, 3}}, // cube 3D
		{64, 6, []int{4, 4, 4}}, // larger cube
		{24, 6, []int{2, 3, 4}}, // balanced 3-factor split
		{24, 4, []int{4, 6}},    // same n, degree budget forces 2D
		{10, 6, []int{2, 5}},    // no 3-factor split of 10; falls to 2D
	}
	for _, c := range cases {
		got, err := TorusDims(c.n, c.d)
		if err != nil {
			t.Errorf("TorusDims(%d, %d): %v", c.n, c.d, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("TorusDims(%d, %d) = %v, want %v", c.n, c.d, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("TorusDims(%d, %d) = %v, want %v", c.n, c.d, got, c.want)
				break
			}
		}
	}
	if _, err := TorusDims(1, 4); err == nil {
		t.Error("n < 2 must fail")
	}
	if _, err := TorusDims(16, 1); err == nil {
		t.Error("degree < 2 must fail")
	}
}

func TestTorusDegree(t *testing.T) {
	cases := []struct {
		dims []int
		want int
	}{
		{[]int{4, 4}, 4},
		{[]int{3, 3, 3}, 6},
		{[]int{2, 3, 4}, 5}, // the size-2 dimension has one shared neighbor
		{[]int{16}, 2},
		{[]int{2, 2}, 2},
	}
	for _, c := range cases {
		if got := TorusDegree(c.dims); got != c.want {
			t.Errorf("TorusDegree(%v) = %d, want %d", c.dims, got, c.want)
		}
	}
}

func TestTorusTopology(t *testing.T) {
	nw := Torus([]int{3, 4}, 100e9)
	if nw.G.N() != 12 {
		t.Fatalf("nodes = %d, want 12", nw.G.N())
	}
	if !nw.G.Connected() {
		t.Error("torus disconnected")
	}
	if !nw.ForwardingHosts {
		t.Error("torus hosts must forward")
	}
	for v := 0; v < 12; v++ {
		if got := nw.G.OutDegree(v); got != 4 {
			t.Errorf("node %d degree %d, want 4", v, got)
		}
	}
	// Row-major with the last dimension fastest: node 0 = (0,0) links to
	// (0,1)=1, (0,3)=3 (wrap), (1,0)=4 and (2,0)=8 (wrap).
	for _, nb := range []int{1, 3, 4, 8} {
		if !nw.G.HasEdge(0, nb) {
			t.Errorf("missing link 0->%d", nb)
		}
	}
	// Size-2 dimensions must not duplicate the wrap link.
	small := Torus([]int{2, 3}, 1e9)
	for v := 0; v < 6; v++ {
		for _, nb := range small.G.Neighbors(v) {
			if small.G.Multiplicity(v, nb) != 1 {
				t.Errorf("parallel links %d->%d in a 2-sized dimension", v, nb)
			}
		}
	}
	// A 1D torus is the n-ring.
	ring := Torus([]int{5}, 1e9)
	for v := 0; v < 5; v++ {
		if ring.G.OutDegree(v) != 2 {
			t.Errorf("ring node %d degree %d, want 2", v, ring.G.OutDegree(v))
		}
	}
}

// degreeOK reports whether no server of nw exceeds degree d (counting
// outgoing duplex links).
func degreeOK(nw *Network, d int) bool {
	for v := 0; v < nw.Hosts; v++ {
		if nw.G.OutDegree(v) > d {
			return false
		}
	}
	return true
}
