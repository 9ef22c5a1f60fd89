package core

import (
	"testing"

	"topoopt/internal/model"
	"topoopt/internal/parallel"
	"topoopt/internal/traffic"
)

func dlrmDemand(t *testing.T, n, batch int) traffic.Demand {
	t.Helper()
	m := model.DLRM(model.DLRMConfig{BatchPerGPU: batch, DenseLayers: 4, DenseLayerSize: 1024,
		DenseFeatLayers: 4, FeatLayerSize: 1024, EmbedDim: 128, EmbedRows: 1e6, EmbedTables: 4})
	st := parallel.Hybrid(m, n)
	d, err := traffic.FromStrategy(m, st, batch)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTopologyFinderBasic(t *testing.T) {
	dem := dlrmDemand(t, 16, 128)
	res, err := TopologyFinder(Config{N: 16, D: 4, LinkBW: 100e9}, dem)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Network.G.Connected() {
		t.Fatal("topology disconnected")
	}
	// Degree constraint: out-degree per server ≤ d.
	for v := 0; v < 16; v++ {
		if res.Network.G.OutDegree(v) > 4 {
			t.Errorf("server %d out-degree %d > 4", v, res.Network.G.OutDegree(v))
		}
		if res.Network.G.InDegree(v) > 4 {
			t.Errorf("server %d in-degree %d > 4", v, res.Network.G.InDegree(v))
		}
	}
	if res.DegreeAllReduce+res.DegreeMP != 4 {
		t.Errorf("degree split %d+%d != 4", res.DegreeAllReduce, res.DegreeMP)
	}
	if res.DegreeAllReduce < 1 {
		t.Error("AllReduce must get at least one degree")
	}
	// Routing covers all pairs.
	if res.Routes.PairCount() != 16*15 {
		t.Errorf("routes cover %d pairs, want 240", res.Routes.PairCount())
	}
}

func TestTopologyFinderRingsAreValidPerms(t *testing.T) {
	dem := dlrmDemand(t, 16, 128)
	res, err := TopologyFinder(Config{N: 16, D: 4, LinkBW: 100e9}, dem)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rings) == 0 {
		t.Fatal("no AllReduce rings")
	}
	for _, gr := range res.Rings {
		if len(gr.Ps) == 0 {
			t.Error("empty permutation set")
		}
		// Duplicates (parallel rings) are only allowed once every
		// distinct candidate is used.
		seen := map[int]int{}
		for _, p := range gr.Ps {
			seen[p]++
		}
		if len(seen) < len(gr.Ps) && len(seen) < len(gr.Members)-1 {
			// heuristic: distinct perms should be exhausted before reuse
			distinctAvailable := 0
			for p := 1; p < len(gr.Members); p++ {
				if gcdInt(p, len(gr.Members)) == 1 {
					distinctAvailable++
				}
			}
			if len(seen) < distinctAvailable && len(seen) < len(gr.Ps) {
				t.Errorf("duplicated permutations before exhausting candidates: %v", gr.Ps)
			}
		}
	}
}

func TestTopologyFinderPureDP(t *testing.T) {
	m := model.CANDLEPreset(model.Sec6)
	st := parallel.DataParallel(m, 12)
	dem, _ := traffic.FromStrategy(m, st, 10)
	res, err := TopologyFinder(Config{N: 12, D: 4, LinkBW: 25e9}, dem)
	if err != nil {
		t.Fatal(err)
	}
	// No MP traffic → all degree to AllReduce.
	if res.DegreeMP != 0 {
		t.Errorf("MP degree %d, want 0", res.DegreeMP)
	}
	// Candidates for n=12 are {1,5,7,11}: four rings fit exactly in d=4.
	if got := len(res.Rings[0].Ps); got != 4 {
		t.Errorf("selected %d rings, want 4", got)
	}
	if !res.Network.G.Connected() {
		t.Error("disconnected")
	}
}

func TestTopologyFinderPureMP(t *testing.T) {
	// Demand with only MP traffic still yields a connected fabric.
	dem := traffic.Demand{N: 8, MP: traffic.NewMatrix(8)}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i != j {
				dem.MP.Add(i, j, 1e6)
			}
		}
	}
	res, err := TopologyFinder(Config{N: 8, D: 4, LinkBW: 100e9}, dem)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Network.G.Connected() {
		t.Fatal("pure-MP topology disconnected")
	}
	if res.DegreeMP < 1 {
		t.Error("MP should receive degree when it dominates traffic")
	}
	// Every demanded pair has a route.
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i != j && res.Routes.Get(i, j) == nil {
				t.Errorf("no route %d->%d", i, j)
			}
		}
	}
}

func TestTopologyFinderAllReduceRoutesUseCoins(t *testing.T) {
	m := model.CANDLEPreset(model.Sec6)
	st := parallel.DataParallel(m, 16)
	dem, _ := traffic.FromStrategy(m, st, 10)
	res, err := TopologyFinder(Config{N: 16, D: 3, LinkBW: 100e9}, dem)
	if err != nil {
		t.Fatal(err)
	}
	coins := map[int]bool{}
	for _, p := range res.Rings[0].Ps {
		coins[p] = true
	}
	// Each hop of each route must be a direct link of the topology.
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			nodes := res.Routes.Get(s, d)
			if nodes == nil {
				t.Fatalf("no route %d->%d", s, d)
			}
			for i := 0; i+1 < len(nodes); i++ {
				if !res.Network.G.HasEdge(nodes[i], nodes[i+1]) {
					t.Fatalf("route %d->%d uses missing link %d->%d",
						s, d, nodes[i], nodes[i+1])
				}
			}
		}
	}
}

func TestTopologyFinderDegreeSplitFollowsTraffic(t *testing.T) {
	// Heavy MP demand should push degree toward MP.
	dem := dlrmDemand(t, 16, 128)
	// Inflate MP 1000x so it dwarfs the dense AllReduce volume.
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			dem.MP[i][j] *= 1000
		}
	}
	res, err := TopologyFinder(Config{N: 16, D: 8, LinkBW: 100e9}, dem)
	if err != nil {
		t.Fatal(err)
	}
	if res.DegreeMP < res.DegreeAllReduce {
		t.Errorf("MP-heavy demand got dA=%d dMP=%d", res.DegreeAllReduce, res.DegreeMP)
	}
}

func TestTopologyFinderMultiGroup(t *testing.T) {
	// Two disjoint AllReduce groups (hybrid parallelism over subsets).
	dem := traffic.Demand{
		N: 16,
		Groups: []traffic.Group{
			{Members: []int{0, 1, 2, 3, 4, 5, 6, 7}, Bytes: 1e9},
			{Members: []int{8, 9, 10, 11, 12, 13, 14, 15}, Bytes: 1e9},
		},
		MP: traffic.NewMatrix(16),
	}
	// Cross-group MP keeps the fabric connected.
	dem.MP.Add(0, 8, 1e8)
	dem.MP.Add(8, 0, 1e8)
	res, err := TopologyFinder(Config{N: 16, D: 4, LinkBW: 100e9}, dem)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rings) != 2 {
		t.Fatalf("rings for %d groups, want 2", len(res.Rings))
	}
	if !res.Network.G.Connected() {
		t.Error("multi-group topology disconnected")
	}
	// Intra-group routing exists.
	if res.Routes.Get(0, 5) == nil || res.Routes.Get(8, 13) == nil {
		t.Error("intra-group routes missing")
	}
	if res.Routes.Get(0, 8) == nil {
		t.Error("cross-group MP route missing")
	}
}

func TestTopologyFinderErrors(t *testing.T) {
	dem := traffic.Demand{N: 4, MP: traffic.NewMatrix(4)}
	if _, err := TopologyFinder(Config{N: 1, D: 4, LinkBW: 1}, traffic.Demand{N: 1}); err == nil {
		t.Error("n=1 should fail")
	}
	if _, err := TopologyFinder(Config{N: 4, D: 0, LinkBW: 1}, dem); err == nil {
		t.Error("d=0 should fail")
	}
	if _, err := TopologyFinder(Config{N: 8, D: 2, LinkBW: 1}, dem); err == nil {
		t.Error("demand/config size mismatch should fail")
	}
}

func TestTopologyFinderPrimeOnlyLargeN(t *testing.T) {
	m := model.CANDLEPreset(model.Sec6)
	st := parallel.DataParallel(m, 128)
	dem, _ := traffic.FromStrategy(m, st, 10)
	res, err := TopologyFinder(Config{N: 128, D: 4, LinkBW: 100e9, PrimeOnly: true}, dem)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Rings[0].Ps {
		if p != 1 && !isPrimeSlow(p) {
			t.Errorf("non-prime permutation %d with PrimeOnly", p)
		}
	}
	if !res.Network.G.Connected() {
		t.Error("disconnected")
	}
	// Theorem 1 shape: diameter far below n/2.
	diam, _ := res.Network.G.Diameter()
	if diam > 24 {
		t.Errorf("diameter %d too large for d=4, n=128", diam)
	}
}

func isPrimeSlow(n int) bool {
	if n < 2 {
		return false
	}
	for p := 2; p*p <= n; p++ {
		if n%p == 0 {
			return false
		}
	}
	return true
}

func TestMaxOutDegree(t *testing.T) {
	dem := dlrmDemand(t, 16, 128)
	res, err := TopologyFinder(Config{N: 16, D: 4, LinkBW: 100e9}, dem)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxOutDegree(res); d > 4 {
		t.Errorf("max out-degree = %d > 4", d)
	}
}

// maxOutDegree returns the maximum server out-degree of res's topology.
func maxOutDegree(res *Result) int {
	max := 0
	for v := 0; v < res.Network.Hosts; v++ {
		if d := res.Network.G.OutDegree(v); d > max {
			max = d
		}
	}
	return max
}

func gcdInt(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func TestTopologyFinderParallelRingsSmallGroup(t *testing.T) {
	// n=8, d=8: only φ(8)=4 distinct rings exist; the other 4 interfaces
	// must carry parallel rings instead of idling.
	m := model.CANDLEPreset(model.Sec6)
	st := parallel.DataParallel(m, 8)
	dem, _ := traffic.FromStrategy(m, st, 10)
	res, err := TopologyFinder(Config{N: 8, D: 8, LinkBW: 100e9}, dem)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Rings[0].Ps); got != 8 {
		t.Errorf("rings = %d, want 8 (4 distinct x2 parallel)", got)
	}
	for v := 0; v < 8; v++ {
		if res.Network.G.OutDegree(v) != 8 {
			t.Errorf("server %d uses %d interfaces, want all 8", v, res.Network.G.OutDegree(v))
		}
	}
}
