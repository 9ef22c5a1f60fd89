package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func ring(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddDuplex(i, (i+1)%n, 1)
	}
	return g
}

func TestAddEdgeDegrees(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 100)
	g.AddEdge(0, 1, 100)
	g.AddEdge(1, 2, 50)
	if g.OutDegree(0) != 2 {
		t.Errorf("OutDegree(0) = %d, want 2", g.OutDegree(0))
	}
	if g.InDegree(1) != 2 {
		t.Errorf("InDegree(1) = %d, want 2", g.InDegree(1))
	}
	if g.Multiplicity(0, 1) != 2 {
		t.Errorf("Multiplicity(0,1) = %d, want 2", g.Multiplicity(0, 1))
	}
	if !g.HasEdge(1, 2) || g.HasEdge(2, 1) {
		t.Error("HasEdge direction wrong")
	}
	if g.M() != 3 {
		t.Errorf("M = %d, want 3", g.M())
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-loop")
		}
	}()
	New(2).AddEdge(1, 1, 1)
}

func TestNeighbors(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 3, 1)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 3, 1)
	ns := g.Neighbors(0)
	if len(ns) != 2 || ns[0] != 1 || ns[1] != 3 {
		t.Errorf("Neighbors(0) = %v, want [1 3]", ns)
	}
}

func TestBFSRing(t *testing.T) {
	g := ring(8)
	dist, _ := g.BFS(0)
	want := []int{0, 1, 2, 3, 4, 3, 2, 1}
	for i, d := range dist {
		if d != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, d, want[i])
		}
	}
}

func TestShortestPathEndpoints(t *testing.T) {
	g := ring(10)
	p := g.ShortestPath(2, 7)
	if p == nil {
		t.Fatal("no path found")
	}
	nodes := p.Nodes(g, 2)
	if nodes[0] != 2 || nodes[len(nodes)-1] != 7 {
		t.Errorf("path endpoints %d..%d, want 2..7", nodes[0], nodes[len(nodes)-1])
	}
	if len(p) != 5 {
		t.Errorf("hops = %d, want 5", len(p))
	}
}

func TestShortestPathSame(t *testing.T) {
	g := ring(4)
	p := g.ShortestPath(1, 1)
	if p == nil || len(p) != 0 {
		t.Errorf("self path = %v, want empty non-nil", p)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	if p := g.ShortestPath(0, 2); p != nil {
		t.Errorf("expected nil path, got %v", p)
	}
	if g.Connected() {
		t.Error("graph should not be connected")
	}
}

func TestDiameterRing(t *testing.T) {
	g := ring(12)
	d, conn := g.Diameter()
	if !conn {
		t.Fatal("ring should be connected")
	}
	if d != 6 {
		t.Errorf("diameter = %d, want 6", d)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := ring(4)
	c := g.Clone()
	c.AddEdge(0, 2, 1)
	if g.M() == c.M() {
		t.Error("clone shares edges with original")
	}
}

func TestDijkstraMatchesBFSOnUnitWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(10)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.4 {
					g.AddEdge(i, j, 1)
				}
			}
		}
		bfsDist, _ := g.BFS(0)
		s := NewSearcher(g)
		dijkstraAll(s, 0, UnitWeight)
		for v := 0; v < n; v++ {
			if bfsDist[v] == -1 {
				if s.reached(v) {
					t.Fatalf("trial %d: node %d reachable by dijkstra only", trial, v)
				}
				continue
			}
			if !s.reached(v) || int(s.dist[v]) != bfsDist[v] {
				t.Fatalf("trial %d node %d: dijkstra %v, bfs %d", trial, v, s.dist[v], bfsDist[v])
			}
		}
	}
}

func TestWeightedShortestPathPrefersLightEdges(t *testing.T) {
	g := New(3)
	heavy := g.AddEdge(0, 2, 1)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	w := func(e Edge) float64 {
		if e.ID == heavy {
			return 10
		}
		return 1
	}
	p := NewSearcher(g).WeightedShortestPath(0, 2, w)
	if len(p) != 2 {
		t.Errorf("expected 2-hop light path, got %d hops", len(p))
	}
}

func TestKShortestPathsRing(t *testing.T) {
	g := ring(6)
	paths := NewSearcher(g).KShortestPaths(0, 3, 3, UnitWeight)
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2 (clockwise + counter-clockwise)", len(paths))
	}
	if len(paths[0]) != 3 || len(paths[1]) != 3 {
		t.Errorf("hops = %d,%d, want 3,3", len(paths[0]), len(paths[1]))
	}
}

func TestKShortestPathsLoopless(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(6)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.5 {
					g.AddEdge(i, j, 1)
				}
			}
		}
		paths := NewSearcher(g).KShortestPaths(0, n-1, 4, UnitWeight)
		for _, p := range paths {
			nodes := p.Nodes(g, 0)
			seen := make(map[int]bool)
			for _, v := range nodes {
				if seen[v] {
					t.Fatalf("trial %d: path %v revisits node %d", trial, nodes, v)
				}
				seen[v] = true
			}
			if len(nodes) > 0 && nodes[len(nodes)-1] != n-1 {
				t.Fatalf("trial %d: path ends at %d, want %d", trial, nodes[len(nodes)-1], n-1)
			}
		}
		for i := 1; i < len(paths); i++ {
			if len(paths[i]) < len(paths[i-1]) {
				t.Fatalf("trial %d: paths out of order", trial)
			}
		}
	}
}

func TestPathNodesPanicsOnBrokenPath(t *testing.T) {
	g := New(3)
	a := g.AddEdge(0, 1, 1)
	b := g.AddEdge(0, 2, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on disconnected path")
		}
	}()
	Path{a, b}.Nodes(g, 0)
}

// Property: BFS distances satisfy the triangle inequality over edges.
func TestBFSTriangleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(12)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.3 {
					g.AddEdge(i, j, 1)
				}
			}
		}
		dist, _ := g.BFS(0)
		for _, e := range g.Edges() {
			if dist[e.From] >= 0 && (dist[e.To] == -1 || dist[e.To] > dist[e.From]+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
