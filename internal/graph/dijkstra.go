package graph

import "slices"

// WeightFunc assigns a nonnegative traversal cost to an edge. The network
// layers use it to bias routing away from loaded links.
type WeightFunc func(Edge) float64

// UnitWeight gives every edge cost 1 (hop-count routing).
func UnitWeight(Edge) float64 { return 1 }

// Searcher answers weighted shortest-path and k-shortest-path queries on
// one graph. Its distances, parents, heap and the edge and node bans of
// Yen's spur searches are sized to the graph once and reused by every
// query; a query allocates only the paths it finds. Per-node and
// per-edge state is valid when its stamp equals the current query's (or
// ban set's) stamp, so starting a query costs one increment, not a clear.
//
// Every query runs the same Dijkstra. Its heap is a slice of values that
// sifts exactly as container/heap does, so nodes pop in the order a
// container/heap Dijkstra would pop them. That order decides which of
// several equal-cost paths wins, and routing tables and plans depend on
// it.
//
// A Searcher is not safe for concurrent use. Edges added to the graph
// after NewSearcher are seen by later queries.
type Searcher struct {
	g      *Graph
	dist   []float64
	parent []int    // edge that last lowered dist[v]; -1 at the source
	seen   []uint32 // seen[v] == query: dist[v] and parent[v] are this query's
	done   []uint32 // done[v] == query: v has been popped
	query  uint32
	heap   []heapItem

	edgeBan []uint32 // edgeBan[id] == ban: edge id is excluded
	nodeBan []uint32 // nodeBan[v] == ban: edges into v are excluded
	ban     uint32

	nodes []int     // reused: node sequence of the path spurs branch from
	rev   []int     // reused: a path's edges, destination first
	cand  Path      // reused: root path + spur path
	cands []Path    // reused: Yen's candidate paths
	costs []float64 // reused: costs[i] is cands[i]'s cost
}

// heapItem is one Dijkstra frontier entry.
type heapItem struct {
	node int
	dist float64
}

// NewSearcher returns a searcher over g.
func NewSearcher(g *Graph) *Searcher {
	return &Searcher{g: g}
}

// newQuery sizes the buffers to the graph and starts a query stamp.
func (s *Searcher) newQuery() {
	if n := s.g.n; len(s.dist) < n {
		s.dist = make([]float64, n)
		s.parent = make([]int, n)
		s.seen = make([]uint32, n)
		s.done = make([]uint32, n)
		s.nodeBan = make([]uint32, n)
	}
	if m := len(s.g.edges); len(s.edgeBan) < m {
		s.edgeBan = append(s.edgeBan, make([]uint32, m-len(s.edgeBan))...)
	}
	s.query++
	if s.query == 0 { // wrapped: stale stamps could match again
		clear(s.seen)
		clear(s.done)
		s.query = 1
	}
}

// newBans starts an empty ban set.
func (s *Searcher) newBans() {
	s.ban++
	if s.ban == 0 {
		clear(s.edgeBan)
		clear(s.nodeBan)
		s.ban = 1
	}
}

// run is Dijkstra from src under w, skipping banned edges and edges into
// banned nodes, after newQuery. It stops once dst is popped, whose
// distance and parent are final by then; dst < 0 settles every
// reachable node.
func (s *Searcher) run(src, dst int, w WeightFunc) {
	g, q, b := s.g, s.query, s.ban
	s.dist[src], s.parent[src], s.seen[src] = 0, -1, q
	h := append(s.heap[:0], heapItem{src, 0})
	for len(h) > 0 {
		var it heapItem
		h, it = popItem(h)
		v := it.node
		if s.done[v] == q {
			continue
		}
		s.done[v] = q
		if v == dst {
			break
		}
		for _, id := range g.out[v] {
			to := g.edges[id].To
			if s.edgeBan[id] == b || s.nodeBan[to] == b {
				continue
			}
			nd := it.dist + w(g.edges[id])
			if s.seen[to] != q || nd < s.dist[to] {
				s.dist[to], s.parent[to], s.seen[to] = nd, id, q
				h = pushItem(h, heapItem{to, nd})
			}
		}
	}
	s.heap = h[:0]
}

// pushItem appends it and sifts it up as container/heap.Push does.
func pushItem(h []heapItem, it heapItem) []heapItem {
	h = append(h, it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(it.dist < h[i].dist) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = it
	return h
}

// popItem removes the minimum as container/heap.Pop does: the last item
// takes the root and sifts down, preferring the right child only when it
// is strictly smaller.
func popItem(h []heapItem) ([]heapItem, heapItem) {
	n := len(h) - 1
	top, last := h[0], h[n]
	h = h[:n]
	if n == 0 {
		return h, top
	}
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < last.dist) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = last
	return h, top
}

// reached reports whether the last run found a path to v.
func (s *Searcher) reached(v int) bool { return s.seen[v] == s.query }

// appendPath appends the last run's path from src to dst to p.
func (s *Searcher) appendPath(p Path, src, dst int) Path {
	rev := s.rev[:0]
	for v := dst; v != src; {
		id := s.parent[v]
		rev = append(rev, id)
		v = s.g.edges[id].From
	}
	p = slices.Grow(p, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		p = append(p, rev[i])
	}
	s.rev = rev
	return p
}

// WeightedShortestPath returns a minimum-cost path under w, or nil if dst is
// unreachable.
func (s *Searcher) WeightedShortestPath(src, dst int, w WeightFunc) Path {
	s.g.checkNode(src)
	s.g.checkNode(dst)
	if src == dst {
		return Path{}
	}
	s.newQuery()
	s.newBans()
	s.run(src, dst, w)
	if !s.reached(dst) {
		return nil
	}
	return s.appendPath(nil, src, dst)
}

// KShortestPaths returns up to k loopless shortest paths from src to dst in
// increasing cost order under w, using Yen's algorithm. MP routing uses it
// to spread forwarded traffic over alternatives (§5.5). Among candidates
// of equal cost the one found first wins.
func (s *Searcher) KShortestPaths(src, dst, k int, w WeightFunc) []Path {
	if k <= 0 {
		return nil
	}
	first := s.WeightedShortestPath(src, dst, w)
	if first == nil {
		return nil
	}
	paths := []Path{first}
	cands, costs := s.cands[:0], s.costs[:0]
	for len(paths) < k {
		prev := paths[len(paths)-1]
		s.nodes = append(s.nodes[:0], src)
		for _, id := range prev {
			s.nodes = append(s.nodes, s.g.edges[id].To)
		}
		for i := range prev {
			spurNode, root := s.nodes[i], prev[:i]
			// Ban edges that would recreate already-found paths sharing
			// this root, and ban root nodes to keep paths loopless.
			s.newBans()
			for _, p := range paths {
				if len(p) > i && pathPrefixEq(p, root) {
					s.edgeBan[p[i]] = s.ban
				}
			}
			for _, v := range s.nodes[:i] {
				s.nodeBan[v] = s.ban
			}
			s.newQuery()
			s.run(spurNode, dst, w)
			if !s.reached(dst) {
				continue
			}
			s.cand = s.appendPath(append(s.cand[:0], root...), spurNode, dst)
			if containsPath(paths, s.cand) || containsPath(cands, s.cand) {
				continue
			}
			cost := 0.0
			for _, id := range s.cand {
				cost += w(s.g.edges[id])
			}
			cands = append(cands, append(Path(nil), s.cand...))
			costs = append(costs, cost)
		}
		if len(cands) == 0 {
			break
		}
		best := 0
		for i := 1; i < len(cands); i++ {
			if costs[i] < costs[best] {
				best = i
			}
		}
		paths = append(paths, cands[best])
		cands = append(cands[:best], cands[best+1:]...)
		costs = append(costs[:best], costs[best+1:]...)
	}
	clear(cands[:cap(cands)]) // drop references to unreturned candidates
	s.cands, s.costs = cands[:0], costs[:0]
	return paths
}

func pathPrefixEq(p, prefix Path) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i := range prefix {
		if p[i] != prefix[i] {
			return false
		}
	}
	return true
}

func containsPath(set []Path, p Path) bool {
	for _, q := range set {
		if len(q) == len(p) && pathPrefixEq(q, p) {
			return true
		}
	}
	return false
}
