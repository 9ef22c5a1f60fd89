package route

import (
	"math"
	"math/rand"
	"testing"

	"topoopt/internal/graph"
	"topoopt/internal/perm"
)

func TestCoinChangeSingleRing(t *testing.T) {
	cc, err := NewCoinChange(8, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if hops(cc, 5) != 5 {
		t.Errorf("Hops(5) = %d, want 5 on a unidirectional +1 ring", hops(cc, 5))
	}
	route := cc.Route(2, 7)
	want := []int{2, 3, 4, 5, 6, 7}
	for i := range want {
		if route[i] != want[i] {
			t.Fatalf("Route(2,7) = %v, want %v", route, want)
		}
	}
}

// A duplex +1 ring forwards both ways: it is the coin pair {1, n-1}.
func TestCoinChangeBidirectional(t *testing.T) {
	cc, err := NewCoinChange(8, []int{1, 7})
	if err != nil {
		t.Fatal(err)
	}
	if hops(cc, 7) != 1 {
		t.Errorf("Hops(7) = %d, want 1 (reverse hop)", hops(cc, 7))
	}
	if cc.MaxHops() != 4 {
		t.Errorf("MaxHops = %d, want 4", cc.MaxHops())
	}
}

func TestCoinChangePaperCoins(t *testing.T) {
	// 16 servers with rings +1, +3, +7 (Figs 7–9).
	cc, err := NewCoinChange(16, []int{1, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	// Distance 14 = 7+7 → 2 hops.
	if hops(cc, 14) != 2 {
		t.Errorf("Hops(14) = %d, want 2", hops(cc, 14))
	}
	// Distance 10 = 7+3 → 2 hops.
	if hops(cc, 10) != 2 {
		t.Errorf("Hops(10) = %d, want 2", hops(cc, 10))
	}
	// Every route's steps must be coin values.
	coins := map[int]bool{1: true, 3: true, 7: true}
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			nodes := cc.Route(s, d)
			if nodes[0] != s || nodes[len(nodes)-1] != d {
				t.Fatalf("Route(%d,%d) endpoints wrong: %v", s, d, nodes)
			}
			for i := 0; i+1 < len(nodes); i++ {
				step := ((nodes[i+1]-nodes[i])%16 + 16) % 16
				if !coins[step] {
					t.Fatalf("Route(%d,%d) = %v uses non-coin step %d", s, d, nodes, step)
				}
			}
		}
	}
}

func TestCoinChangeOptimality(t *testing.T) {
	// Against brute-force BFS over Z_n for random coin sets.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(40)
		cands := perm.Coprimes(n)
		coins := []int{cands[rng.Intn(len(cands))], cands[rng.Intn(len(cands))]}
		cc, err := NewCoinChange(n, coins)
		if err != nil {
			t.Fatal(err)
		}
		// BFS.
		dist := make([]int, n)
		for i := 1; i < n; i++ {
			dist[i] = -1
		}
		queue := []int{0}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, c := range coins {
				u := (v + c) % n
				if u != 0 && dist[u] == -1 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		for d := 1; d < n; d++ {
			if hops(cc, d) != dist[d] {
				t.Fatalf("trial %d (n=%d coins=%v): Hops(%d)=%d, want %d",
					trial, n, coins, d, hops(cc, d), dist[d])
			}
		}
	}
}

func TestCoinChangeErrors(t *testing.T) {
	if _, err := NewCoinChange(1, []int{1}); err == nil {
		t.Error("expected error for n=1")
	}
	if _, err := NewCoinChange(8, nil); err == nil {
		t.Error("expected error for no coins")
	}
	// Coins {2,4} cannot reach odd distances in Z_8.
	if _, err := NewCoinChange(8, []int{2, 4}); err == nil {
		t.Error("expected unreachable error for even coins in Z_8")
	}
}

func TestCoinChangeGeometricDiameterBound(t *testing.T) {
	// Theorem 1: geometric coins bound diameter by ~d·n^(1/d).
	for _, n := range []int{16, 64, 128, 256} {
		for _, d := range []int{2, 3, 4} {
			coins := perm.SelectPermutations(n, d, perm.Coprimes(n))
			cc, err := NewCoinChange(n, coins)
			if err != nil {
				t.Fatal(err)
			}
			bound := float64(d) * math.Pow(float64(n), 1/float64(d)) * 2.5
			if float64(cc.MaxHops()) > bound {
				t.Errorf("n=%d d=%d coins=%v: diameter %d exceeds bound %.1f",
					n, d, coins, cc.MaxHops(), bound)
			}
		}
	}
}

func TestTableSetGet(t *testing.T) {
	tab := NewTable(4)
	tab.Set(0, 3, []int{0, 1, 3})
	if got := tab.Get(0, 3); len(got) != 3 || got[1] != 1 {
		t.Errorf("Get(0,3) = %v", got)
	}
	if got := tab.Get(2, 2); len(got) != 1 || got[0] != 2 {
		t.Errorf("Get(2,2) = %v, want [2]", got)
	}
	if got := tab.Get(1, 0); got != nil {
		t.Errorf("Get(1,0) = %v, want nil", got)
	}
	if tab.PairCount() != 1 {
		t.Errorf("PairCount = %d, want 1", tab.PairCount())
	}
}

func TestTableSetInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable(4).Set(0, 3, []int{0, 1, 2})
}

func TestFillShortestPaths(t *testing.T) {
	g := graph.New(5)
	for i := 0; i < 5; i++ {
		g.AddDuplex(i, (i+1)%5, 1)
	}
	tab := NewTable(5)
	tab.Set(0, 2, []int{0, 4, 3, 2}) // pre-installed long route must survive
	tab.FillShortestPaths(g)
	if got := tab.Get(0, 2); len(got) != 4 {
		t.Errorf("pre-installed route overwritten: %v", got)
	}
	if got := tab.Get(1, 3); len(got) != 3 {
		t.Errorf("Get(1,3) = %v, want 2-hop path", got)
	}
	if tab.PairCount() != 20 {
		t.Errorf("PairCount = %d, want 20", tab.PairCount())
	}
}

func TestLinkLoadsAndBandwidthTax(t *testing.T) {
	// 4-node +1 unidirectional ring: routing 0->2 takes 2 hops, so tax for a
	// single 0->2 transfer is 2.
	cc, err := NewCoinChange(4, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	tab := NewTable(4)
	tab.Set(0, 1, cc.Route(0, 1))
	tab.Set(0, 2, cc.Route(0, 2))
	tm := make([][]int64, 4)
	for i := range tm {
		tm[i] = make([]int64, 4)
	}
	tm[0][2] = 1000
	loads := make([]int64, 16)
	tab.LinkLoads(tm, loads)
	for i, v := range loads {
		want := int64(0)
		if i == 0*4+1 || i == 1*4+2 {
			want = 1000
		}
		if v != want {
			t.Errorf("load of link %d->%d = %d, want %d", i/4, i%4, v, want)
		}
	}
	// Loads add into the caller's slice.
	tab.LinkLoads(tm, loads)
	if loads[0*4+1] != 2000 {
		t.Errorf("second LinkLoads left link 0->1 at %d, want 2000", loads[0*4+1])
	}
	if tax := tab.BandwidthTax(tm); tax != 2 {
		t.Errorf("tax = %v, want 2", tax)
	}
	// Direct neighbors have tax 1.
	tm[0][2] = 0
	tm[0][1] = 500
	if tax := tab.BandwidthTax(tm); tax != 1 {
		t.Errorf("tax = %v, want 1", tax)
	}
}

// hops returns the minimal number of coin hops covering distance d in
// Z_n, as the coin-change table records it.
func hops(cc *CoinChange, d int) int {
	d = ((d % cc.n) + cc.n) % cc.n
	return len(cc.seq[d])
}
