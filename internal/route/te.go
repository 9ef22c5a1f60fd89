package route

import "fmt"

// Traffic engineering for host-forwarded MP transfers (§5.5). The paper
// observes that single-path routing leaves the per-link load imbalanced
// (Figure 15: the least-loaded link carries 39–59% less than the most
// loaded) and that the optimal routing strategy — minimizing maximum link
// utilization — would bring the slowdown factor α of Eq. (1) down to the
// average path length, but leaves it to future work. This file implements
// that future work as an iterative min-max heuristic in the spirit of
// semi-oblivious WAN TE: demands split fractionally over k-shortest path
// candidates, repeatedly shifting load away from the most-utilized link.

// Torus routes a multi-dimensional wrap-around grid with dimension-
// ordered routing (DOR): correct the coordinate one dimension at a time,
// taking the shorter way around each ring. DOR is deadlock-free on a
// torus and — unlike shortest-path routing with arbitrary tie-breaks —
// fully deterministic, which the plan fingerprinting in internal/serve
// relies on. Node indices are row-major with the last dimension fastest,
// matching topo.Torus.
type Torus struct {
	Dims []int
}

// N returns the node count (the product of the dimensions).
func (t Torus) N() int {
	n := 1
	for _, s := range t.Dims {
		n *= s
	}
	return n
}

// Coord decomposes node v into per-dimension coordinates.
func (t Torus) Coord(v int) []int {
	c := make([]int, len(t.Dims))
	for i := len(t.Dims) - 1; i >= 0; i-- {
		c[i] = v % t.Dims[i]
		v /= t.Dims[i]
	}
	return c
}

// Index recomposes coordinates into a node index.
func (t Torus) Index(c []int) int {
	v := 0
	for i, s := range t.Dims {
		v = v*s + c[i]
	}
	return v
}

// Route returns the dimension-ordered node path from src to dst:
// dimensions are corrected in declaration order, each along its shorter
// ring direction; an exact half-ring tie breaks toward +1, so routes are
// deterministic functions of (Dims, src, dst).
func (t Torus) Route(src, dst int) []int {
	cur := t.Coord(src)
	want := t.Coord(dst)
	path := []int{src}
	for i, s := range t.Dims {
		delta := ((want[i]-cur[i])%s + s) % s
		if delta == 0 {
			continue
		}
		dir, steps := 1, delta
		if s-delta < delta {
			dir, steps = -1, s-delta
		}
		for k := 0; k < steps; k++ {
			cur[i] = ((cur[i]+dir)%s + s) % s
			path = append(path, t.Index(cur))
		}
	}
	return path
}

// FillTable installs DOR routes for every ordered pair into tab.
func (t Torus) FillTable(tab *Table) {
	n := t.N()
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			tab.Set(s, d, t.Route(s, d))
		}
	}
}

// Split is a fractional assignment of one (src,dst) demand across
// candidate paths.
type Split struct {
	Paths     [][]int // node paths
	Fractions []float64
}

// TEResult is the outcome of Balance.
type TEResult struct {
	// Splits maps [2]int{src,dst} to the chosen fractional assignment.
	Splits map[[2]int]Split
	// MaxLinkLoad and MeanLinkLoad are byte loads after balancing.
	MaxLinkLoad  int64
	MeanLinkLoad float64
	// Alpha is Σ(bytes×hops)/Σ(bytes): with perfect balancing this is the
	// demand-weighted average path length (the §5.5 lower bound).
	Alpha float64
}

// Balance spreads the demand matrix over the candidate paths to minimize
// the maximum per-link load. candidates[pair] must contain at least one
// path per demanded pair, over nodes below len(tm); iterations bounds the
// refinement loop.
func Balance(tm [][]int64, candidates map[[2]int][][]int, iterations int) (*TEResult, error) {
	if iterations <= 0 {
		iterations = 100
	}
	type flowState struct {
		pair  [2]int
		bytes float64
		paths [][]int
		frac  []float64
	}
	var flows []*flowState // in (src, dst) order, the order moves try them
	for s := range tm {
		for d, bytes := range tm[s] {
			if bytes == 0 || s == d {
				continue
			}
			paths := candidates[[2]int{s, d}]
			if len(paths) == 0 {
				return nil, fmt.Errorf("route: no candidate paths for %d->%d", s, d)
			}
			frac := make([]float64, len(paths))
			frac[0] = 1 // start on the primary (shortest) path
			flows = append(flows, &flowState{
				pair: [2]int{s, d}, bytes: float64(bytes),
				paths: paths, frac: frac,
			})
		}
	}
	// Link loads in the routing table's layout: link from->to at from*n+to.
	n := len(tm)
	loads := make([]float64, n*n)
	linkLoad := func() {
		clear(loads)
		for _, f := range flows {
			for pi, p := range f.paths {
				if f.frac[pi] == 0 {
					continue
				}
				for i := 0; i+1 < len(p); i++ {
					loads[p[i]*n+p[i+1]] += f.bytes * f.frac[pi]
				}
			}
		}
	}
	pathUses := func(p []int, link int) bool {
		for i := 0; i+1 < len(p); i++ {
			if p[i]*n+p[i+1] == link {
				return true
			}
		}
		return false
	}
	const step = 0.1
	for it := 0; it < iterations; it++ {
		linkLoad()
		// Most-loaded link; the lowest index, the smallest (from, to), wins.
		hot, hotLoad := 0, -1.0
		for l, v := range loads {
			if v > hotLoad {
				hot, hotLoad = l, v
			}
		}
		if hotLoad <= 0 {
			break
		}
		// Move a slice of some flow off the hot link onto its best
		// alternative (the candidate path whose own max-link load is
		// lowest).
		moved := false
		for _, f := range flows {
			if len(f.paths) < 2 {
				continue
			}
			onHot := -1
			for pi, p := range f.paths {
				if f.frac[pi] > 0 && pathUses(p, hot) {
					onHot = pi
					break
				}
			}
			if onHot == -1 {
				continue
			}
			// Best alternative: avoid the hot link, lowest bottleneck.
			best, bestLoad := -1, hotLoad
			for pi, p := range f.paths {
				if pi == onHot || pathUses(p, hot) {
					continue
				}
				worst := 0.0
				for i := 0; i+1 < len(p); i++ {
					if v := loads[p[i]*n+p[i+1]]; v > worst {
						worst = v
					}
				}
				if worst < bestLoad {
					best, bestLoad = pi, worst
				}
			}
			if best == -1 {
				continue
			}
			delta := step
			if f.frac[onHot] < delta {
				delta = f.frac[onHot]
			}
			// Only move if it cannot create a hotter link.
			if bestLoad+delta*f.bytes >= hotLoad {
				continue
			}
			f.frac[onHot] -= delta
			f.frac[best] += delta
			moved = true
			break
		}
		if !moved {
			break
		}
	}
	res := &TEResult{Splits: make(map[[2]int]Split)}
	var totalBytes, byteHops float64
	linkLoad()
	for _, f := range flows {
		res.Splits[f.pair] = Split{Paths: f.paths, Fractions: append([]float64(nil), f.frac...)}
		totalBytes += f.bytes
		for pi, p := range f.paths {
			byteHops += f.bytes * f.frac[pi] * float64(len(p)-1)
		}
	}
	var sum float64
	links := 0
	for _, v := range loads {
		if v > 0 {
			res.MaxLinkLoad = max(res.MaxLinkLoad, int64(v))
			sum += v
			links++
		}
	}
	if links > 0 {
		res.MeanLinkLoad = sum / float64(links)
	}
	if totalBytes > 0 {
		res.Alpha = byteHops / totalBytes
	}
	return res, nil
}
