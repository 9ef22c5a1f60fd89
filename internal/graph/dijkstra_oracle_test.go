package graph

import (
	"container/heap"
	"math/rand"
	"reflect"
	"testing"
)

// The reference below is the container/heap Dijkstra and Yen search the
// Searcher replaced, kept as the oracle for its pop order: the order in
// which equal-distance nodes leave the heap decides which of several
// equal-cost paths wins, so the Searcher must reproduce it exactly, not
// merely find some shortest path. The old Dijkstra and its spur-search
// copy are folded into refDijkstra; they differed only in skipping the
// negative weights the spur searches used as bans.

type refItem struct {
	node int
	dist float64
}

type refHeap []refItem

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// refDijkstra settles every node reachable from src; unreached nodes keep
// dist -1 and parent -1.
func refDijkstra(g *Graph, src int, w WeightFunc) (dist []float64, parentEdge []int) {
	dist = make([]float64, g.n)
	parentEdge = make([]int, g.n)
	done := make([]bool, g.n)
	for i := range dist {
		dist[i] = -1
		parentEdge[i] = -1
	}
	dist[src] = 0
	h := &refHeap{{src, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		v := it.node
		if done[v] {
			continue
		}
		done[v] = true
		for _, id := range g.out[v] {
			e := g.edges[id]
			c := w(e)
			if c < 0 {
				continue // a banned edge in a spur search
			}
			nd := it.dist + c
			if dist[e.To] < 0 || nd < dist[e.To] {
				dist[e.To] = nd
				parentEdge[e.To] = id
				heap.Push(h, refItem{e.To, nd})
			}
		}
	}
	return dist, parentEdge
}

func refShortestPath(g *Graph, src, dst int, w WeightFunc) Path {
	if src == dst {
		return Path{}
	}
	dist, parent := refDijkstra(g, src, w)
	if dist[dst] < 0 {
		return nil
	}
	var rev []int
	for v := dst; v != src; {
		id := parent[v]
		rev = append(rev, id)
		v = g.edges[id].From
	}
	p := make(Path, len(rev))
	for i := range rev {
		p[i] = rev[len(rev)-1-i]
	}
	return p
}

func refKShortestPaths(g *Graph, src, dst, k int, w WeightFunc) []Path {
	if k <= 0 {
		return nil
	}
	first := refShortestPath(g, src, dst, w)
	if first == nil {
		return nil
	}
	paths := []Path{first}
	var candidates []Path
	costOf := func(p Path) float64 {
		c := 0.0
		for _, id := range p {
			c += w(g.edges[id])
		}
		return c
	}
	for len(paths) < k {
		prev := paths[len(paths)-1]
		prevNodes := prev.Nodes(g, src)
		for i := 0; i < len(prev); i++ {
			spurNode := prevNodes[i]
			rootPath := prev[:i]
			banned := make(map[int]bool)
			for _, p := range paths {
				if len(p) > i && pathPrefixEq(p, rootPath) {
					banned[p[i]] = true
				}
			}
			bannedNode := make(map[int]bool)
			for _, v := range prevNodes[:i] {
				bannedNode[v] = true
			}
			wf := func(e Edge) float64 {
				if banned[e.ID] || bannedNode[e.To] || bannedNode[e.From] {
					return -1
				}
				return w(e)
			}
			spur := refShortestPath(g, spurNode, dst, wf)
			if spur == nil {
				continue
			}
			total := make(Path, 0, len(rootPath)+len(spur))
			total = append(total, rootPath...)
			total = append(total, spur...)
			if !containsPath(paths, total) && !containsPath(candidates, total) {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		best := 0
		for i := 1; i < len(candidates); i++ {
			if costOf(candidates[i]) < costOf(candidates[best]) {
				best = i
			}
		}
		paths = append(paths, candidates[best])
		candidates = append(candidates[:best], candidates[best+1:]...)
	}
	return paths
}

// dijkstraAll runs the Searcher's Dijkstra from src to every node.
func dijkstraAll(s *Searcher, src int, w WeightFunc) {
	s.newQuery()
	s.newBans()
	s.run(src, -1, w)
}

// randomMultigraph returns a directed multigraph on 2–12 nodes with
// parallel edges, and a weight per edge ID. Sparse draws leave some
// targets unreachable; small integer and half-unit weights make
// equal-cost ties common.
func randomMultigraph(rng *rand.Rand) (*Graph, WeightFunc, string) {
	n := 2 + rng.Intn(11)
	g := New(n)
	density := 0.1 + 0.5*rng.Float64()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || rng.Float64() >= density {
				continue
			}
			g.AddEdge(i, j, 1)
			for rng.Float64() < 0.25 { // parallel links
				g.AddEdge(i, j, 1)
			}
		}
	}
	wt := make([]float64, g.M())
	kind := []string{"unit", "int", "half", "zero", "float"}[rng.Intn(5)]
	for id := range wt {
		switch kind {
		case "unit":
			wt[id] = 1
		case "int":
			wt[id] = float64(1 + rng.Intn(3))
		case "half":
			wt[id] = 0.5 * float64(1+rng.Intn(4))
		case "zero":
			wt[id] = float64(rng.Intn(2))
		case "float":
			wt[id] = rng.Float64()
		}
	}
	return g, func(e Edge) float64 { return wt[e.ID] }, kind
}

// TestSearcherMatchesContainerHeapOracle replays 400 seeded random
// multigraphs through both implementations: identical distances and
// parent edges from every source, and identical KShortestPaths for every
// ordered pair at k = 1..4, from one Searcher reused across all of a
// graph's queries.
func TestSearcherMatchesContainerHeapOracle(t *testing.T) {
	var queries, unreachable, tied, parallel int
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, w, kind := randomMultigraph(rng)
		s := NewSearcher(g)
		for src := 0; src < g.N(); src++ {
			wantDist, wantParent := refDijkstra(g, src, w)
			dijkstraAll(s, src, w)
			for v := 0; v < g.N(); v++ {
				dist, parent := -1.0, -1
				if s.reached(v) {
					dist, parent = s.dist[v], s.parent[v]
				}
				if dist != wantDist[v] || parent != wantParent[v] {
					t.Fatalf("seed %d (%s weights) src %d node %d: dist %v parent %d, container/heap %v %d",
						seed, kind, src, v, dist, parent, wantDist[v], wantParent[v])
				}
			}
			for dst := 0; dst < g.N(); dst++ {
				if dst == src {
					continue
				}
				if g.Multiplicity(src, dst) > 1 {
					parallel++
				}
				for k := 1; k <= 4; k++ {
					got := s.KShortestPaths(src, dst, k, w)
					want := refKShortestPaths(g, src, dst, k, w)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d (%s weights) %d->%d k=%d:\n got %v\nwant %v", seed, kind, src, dst, k, got, want)
					}
					queries++
					if want == nil {
						unreachable++
					} else if len(want) > 1 && pathCost(want[0], w, g) == pathCost(want[1], w, g) {
						tied++
					}
				}
			}
		}
	}
	// The draw must exercise what the pop order decides.
	if queries < 3000 || unreachable == 0 || tied == 0 || parallel == 0 {
		t.Fatalf("weak draw: %d queries, %d unreachable, %d with tied costs, %d pairs with parallel edges",
			queries, unreachable, tied, parallel)
	}
}

func pathCost(p Path, w WeightFunc, g *Graph) float64 {
	c := 0.0
	for _, id := range p {
		c += w(g.Edge(id))
	}
	return c
}

// TestSearcherSeesEdgesAddedLater: the ban slices grow with the graph,
// so an edge added after NewSearcher is searchable and bannable.
func TestSearcherSeesEdgesAddedLater(t *testing.T) {
	g, src, dst := tieGraph()
	s := NewSearcher(g)
	s.KShortestPaths(src, dst, 3, UnitWeight)
	shortcut := g.AddEdge(src, dst, 1)
	got := s.KShortestPaths(src, dst, 2, UnitWeight)
	if want := refKShortestPaths(g, src, dst, 2, UnitWeight); !reflect.DeepEqual(got, want) || !reflect.DeepEqual(got[0], Path{shortcut}) {
		t.Fatalf("after AddEdge: %v, want %v starting with [%d]", got, want, shortcut)
	}
}

// TestSearcherStampWrap: when a stamp counter wraps, stale marks are
// cleared rather than read as current.
func TestSearcherStampWrap(t *testing.T) {
	g := ring(6)
	s := NewSearcher(g)
	want := s.KShortestPaths(0, 3, 2, UnitWeight)
	s.query, s.ban = ^uint32(0)-1, ^uint32(0)-1
	for i := 0; i < 4; i++ {
		if got := s.KShortestPaths(0, 3, 2, UnitWeight); !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d across the wrap: %v, want %v", i, got, want)
		}
	}
}

// tieGraph builds a graph with many equal-length s->t paths: a 2-wide,
// 3-long ladder where every layer offers two parallel choices.
func tieGraph() (*Graph, int, int) {
	g := New(8)
	// 0 -> {1,2} -> {3,4} -> {5,6} -> 7 with full bipartite layers.
	g.AddDuplex(0, 1, 1e9)
	g.AddDuplex(0, 2, 1e9)
	for _, a := range []int{1, 2} {
		for _, b := range []int{3, 4} {
			g.AddDuplex(a, b, 1e9)
		}
	}
	for _, a := range []int{3, 4} {
		for _, b := range []int{5, 6} {
			g.AddDuplex(a, b, 1e9)
		}
	}
	g.AddDuplex(5, 7, 1e9)
	g.AddDuplex(6, 7, 1e9)
	return g, 0, 7
}

func TestKShortestPathsTieBreakDeterministic(t *testing.T) {
	// Eight equal-length 0->7 paths: the selection and order of the k
	// returned paths must be identical run over run — plan fingerprints
	// and the serve cache rely on routing being a pure function.
	g0, s, d := tieGraph()
	base := NewSearcher(g0).KShortestPaths(s, d, 4, UnitWeight)
	if len(base) != 4 {
		t.Fatalf("got %d paths, want 4", len(base))
	}
	for _, p := range base {
		if len(p) != 4 {
			t.Errorf("path %v is not shortest (4 hops)", p)
		}
	}
	for run := 0; run < 10; run++ {
		g, _, _ := tieGraph() // a fresh graph: no shared state between runs
		if got := NewSearcher(g).KShortestPaths(s, d, 4, UnitWeight); !reflect.DeepEqual(got, base) {
			t.Fatalf("run %d: %v vs %v", run, got, base)
		}
	}
}

func TestKShortestPathsNodePaths(t *testing.T) {
	g := New(4)
	g.AddDuplex(0, 1, 1)
	g.AddDuplex(1, 3, 1)
	g.AddDuplex(0, 2, 1)
	g.AddDuplex(2, 3, 1)
	paths := NewSearcher(g).KShortestPaths(0, 3, 4, UnitWeight)
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	for _, p := range paths {
		if nodes := p.Nodes(g, 0); nodes[0] != 0 || nodes[len(nodes)-1] != 3 {
			t.Errorf("bad path %v", nodes)
		}
	}
}
