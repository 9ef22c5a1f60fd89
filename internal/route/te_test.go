package route

import (
	"testing"

	"topoopt/internal/graph"
)

// diamond: 0->3 via 1 or via 2; plus direct demand 0->1.
func diamondCandidates() map[[2]int][][]int {
	return map[[2]int][][]int{
		{0, 3}: {{0, 1, 3}, {0, 2, 3}},
		{0, 1}: {{0, 1}},
	}
}

func TestBalanceSpreadsHotLink(t *testing.T) {
	tm := make([][]int64, 4)
	for i := range tm {
		tm[i] = make([]int64, 4)
	}
	tm[0][3] = 1000
	tm[0][1] = 1000
	res, err := Balance(tm, diamondCandidates(), 200)
	if err != nil {
		t.Fatal(err)
	}
	// Without TE, link (0,1) carries 2000 (both demands). Balanced, the
	// 0->3 demand should shift mostly onto 0->2->3.
	if res.MaxLinkLoad >= 2000 {
		t.Errorf("max link load %d not reduced from 2000", res.MaxLinkLoad)
	}
	sp := res.Splits[[2]int{0, 3}]
	if sp.Fractions[1] <= 0 {
		t.Errorf("no traffic moved to the alternate path: %v", sp.Fractions)
	}
	// Fractions stay a distribution.
	sum := 0.0
	for _, f := range sp.Fractions {
		if f < -1e-9 || f > 1+1e-9 {
			t.Errorf("fraction %v out of range", f)
		}
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("fractions sum to %v", sum)
	}
}

func TestBalanceAlphaIsWeightedPathLength(t *testing.T) {
	tm := make([][]int64, 4)
	for i := range tm {
		tm[i] = make([]int64, 4)
	}
	tm[0][1] = 500
	res, err := Balance(tm, map[[2]int][][]int{{0, 1}: {{0, 1}}}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Alpha != 1 {
		t.Errorf("alpha = %v, want 1 for a direct path", res.Alpha)
	}
}

func TestBalanceMissingCandidates(t *testing.T) {
	tm := make([][]int64, 2)
	for i := range tm {
		tm[i] = make([]int64, 2)
	}
	tm[0][1] = 1
	if _, err := Balance(tm, nil, 10); err == nil {
		t.Error("missing candidates should fail")
	}
}

func TestBalanceImprovesImbalanceOnRealTopology(t *testing.T) {
	// 8-node double ring (+1, +3): all-to-all demand, k-shortest
	// candidates. TE should reduce max link load versus single-path.
	g := graph.New(8)
	for _, p := range []int{1, 3} {
		for i := 0; i < 8; i++ {
			g.AddEdge(i, (i+p)%8, 1)
		}
	}
	tm := make([][]int64, 8)
	for i := range tm {
		tm[i] = make([]int64, 8)
		for j := range tm[i] {
			if i != j {
				tm[i][j] = 100
			}
		}
	}
	cands := make(map[[2]int][][]int)
	tab := NewTable(8)
	tab.FillShortestPaths(g)
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if s == d {
				continue
			}
			cands[[2]int{s, d}] = kShortestNodes(g, s, d, 3)
		}
	}
	single := make([]int64, 8*8)
	tab.LinkLoads(tm, single)
	var singleMax int64
	for _, v := range single {
		if v > singleMax {
			singleMax = v
		}
	}
	res, err := Balance(tm, cands, 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLinkLoad > singleMax {
		t.Errorf("TE max load %d worse than single-path %d", res.MaxLinkLoad, singleMax)
	}
	if res.Alpha <= 0 {
		t.Error("alpha must be positive")
	}
}

func TestTorusCoordIndexRoundTrip(t *testing.T) {
	tor := Torus{Dims: []int{3, 4, 5}}
	if tor.N() != 60 {
		t.Fatalf("N = %d, want 60", tor.N())
	}
	for v := 0; v < tor.N(); v++ {
		c := tor.Coord(v)
		for i, s := range tor.Dims {
			if c[i] < 0 || c[i] >= s {
				t.Fatalf("coord %v of %d out of range", c, v)
			}
		}
		if got := tor.Index(c); got != v {
			t.Fatalf("Index(Coord(%d)) = %d", v, got)
		}
	}
}

func TestTorusDimensionOrderedRoute(t *testing.T) {
	tor := Torus{Dims: []int{4, 4}}
	// (0,0) -> (2,3): dimension 0 first (2 hops down the first axis, via
	// the tie-broken +1 direction), then dimension 1 takes the 1-hop -1
	// wrap instead of 3 forward hops.
	path := tor.Route(0, 11)
	want := []int{0, 4, 8, 11}
	if len(path) != len(want) {
		t.Fatalf("path = %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	// The -1 wrap must be taken when it is strictly shorter: (0,0)->(0,3)
	// is one hop through the wrap link, not three forward hops.
	short := tor.Route(0, 3)
	if len(short) != 2 || short[1] != 3 {
		t.Errorf("wrap route = %v, want [0 3]", short)
	}
	// Exact half-ring ties break toward +1, deterministically.
	tie := tor.Route(0, 2)
	if len(tie) != 3 || tie[1] != 1 {
		t.Errorf("tie route = %v, want [0 1 2]", tie)
	}
	// Self-route is the single node.
	if self := tor.Route(5, 5); len(self) != 1 || self[0] != 5 {
		t.Errorf("self route = %v", self)
	}
}

func TestTorusRouteHopOptimalPerDimension(t *testing.T) {
	tor := Torus{Dims: []int{3, 5}}
	for s := 0; s < tor.N(); s++ {
		for d := 0; d < tor.N(); d++ {
			path := tor.Route(s, d)
			// DOR hop count = Σ min(Δ, size−Δ) over dimensions.
			cs, cd := tor.Coord(s), tor.Coord(d)
			want := 0
			for i, size := range tor.Dims {
				delta := ((cd[i]-cs[i])%size + size) % size
				if size-delta < delta {
					delta = size - delta
				}
				want += delta
			}
			if len(path)-1 != want {
				t.Fatalf("%d->%d: %d hops, want %d (path %v)", s, d, len(path)-1, want, path)
			}
			if path[0] != s || path[len(path)-1] != d {
				t.Fatalf("%d->%d: bad endpoints %v", s, d, path)
			}
		}
	}
}

func TestTorusFillTableDeterministic(t *testing.T) {
	tor := Torus{Dims: []int{2, 3, 4}}
	a := NewTable(tor.N())
	tor.FillTable(a)
	b := NewTable(tor.N())
	tor.FillTable(b)
	if a.PairCount() != tor.N()*(tor.N()-1) || a.PairCount() != b.PairCount() {
		t.Fatalf("pair counts %d vs %d", a.PairCount(), b.PairCount())
	}
	for s := 0; s < tor.N(); s++ {
		for d := 0; d < tor.N(); d++ {
			pa, pb := a.Get(s, d), b.Get(s, d)
			if len(pa) != len(pb) {
				t.Fatalf("%d->%d: %v vs %v", s, d, pa, pb)
			}
			for i := range pa {
				if pa[i] != pb[i] {
					t.Fatalf("%d->%d: %v vs %v", s, d, pa, pb)
				}
			}
		}
	}
}

func TestBalanceDeterministicOnTies(t *testing.T) {
	// Two identical demands over symmetric candidates: Balance's
	// hot-link scan and flow ordering must break ties identically run
	// over run.
	mk := func() *TEResult {
		tm := make([][]int64, 4)
		for i := range tm {
			tm[i] = make([]int64, 4)
		}
		tm[0][3] = 1000
		tm[1][3] = 1000
		res, err := Balance(tm, map[[2]int][][]int{
			{0, 3}: {{0, 1, 3}, {0, 2, 3}},
			{1, 3}: {{1, 0, 3}, {1, 2, 3}},
		}, 50)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.MaxLinkLoad != b.MaxLinkLoad || a.Alpha != b.Alpha {
		t.Fatalf("aggregate results differ: %+v vs %+v", a, b)
	}
	for pair, sa := range a.Splits {
		sb := b.Splits[pair]
		for i := range sa.Fractions {
			if sa.Fractions[i] != sb.Fractions[i] {
				t.Fatalf("%v: fractions %v vs %v", pair, sa.Fractions, sb.Fractions)
			}
		}
	}
}

// kShortestNodes returns up to k shortest s->d paths on g as node
// sequences, the candidate shape the §5.5 experiment hands to Balance.
func kShortestNodes(g *graph.Graph, s, d, k int) [][]int {
	var out [][]int
	for _, p := range graph.NewSearcher(g).KShortestPaths(s, d, k, graph.UnitWeight) {
		out = append(out, p.Nodes(g, s))
	}
	return out
}
