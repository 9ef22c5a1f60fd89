// Package planchk checks a TopoOpt plan against invariants that hold for
// any deployable plan, independently of how the planner produced it:
//
//   - no server has more circuits out or in than its degree;
//   - every route is a path over the plan's circuits from its source to
//     its destination;
//   - every ring generator is co-prime to its group size and smaller
//     than it;
//   - every strategy host is a server of the job;
//   - the predicted MP and AllReduce phases are no shorter than the time
//     each server needs to push its own bytes through its egress
//     (out-circuits × link bandwidth). A ring AllReduce member sends
//     2(k−1)/k of its group's bytes.
//
// The checker reads only the plan's wire fields, so it stays valid when
// the planner's internals change.
package planchk

import (
	"errors"
	"fmt"

	"topoopt"
)

// phaseSlack absorbs integer rounding in the planner's ring byte split:
// a phase may undercut the byte bound by this relative share.
const phaseSlack = 1e-6

// Check returns every invariant p violates for a job on n servers with
// the given degree and per-interface link bandwidth (bits/s), joined into
// one error, or nil when the plan passes.
func Check(p *topoopt.Plan, n, degree int, linkBW float64) error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	out := make([]int, n)
	in := make([]int, n)
	link := make(map[[2]int]bool, len(p.Circuits))
	for _, c := range p.Circuits {
		if c.From < 0 || c.From >= n || c.To < 0 || c.To >= n || c.From == c.To {
			bad("circuit %d->%d is not between two distinct servers of %d", c.From, c.To, n)
			continue
		}
		out[c.From]++
		in[c.To]++
		link[[2]int{c.From, c.To}] = true
	}
	for s := 0; s < n; s++ {
		if out[s] > degree || in[s] > degree {
			bad("server %d has %d circuits out and %d in, degree is %d", s, out[s], in[s], degree)
		}
	}

	for src, dsts := range p.Routes {
		for dst, path := range dsts {
			if err := checkRoute(src, dst, path, link); err != nil {
				errs = append(errs, err)
			}
		}
	}

	for i, r := range p.Rings {
		k := len(r.Members)
		for _, m := range r.Members {
			if m < 0 || m >= n {
				bad("ring %d member %d is not a server of %d", i, m, n)
			}
		}
		for _, g := range r.Ps {
			if g <= 0 || g >= k || gcd(g, k) != 1 {
				bad("ring %d generator %d is not co-prime to and below its group size %d", i, g, k)
			}
		}
	}

	if p.Strategy.N != n {
		bad("strategy is for %d servers, job has %d", p.Strategy.N, n)
	}
	for li, ls := range p.Strategy.Layers {
		for _, h := range ls.Group {
			if h < 0 || h >= n {
				bad("strategy layer %d host %d is not a server of %d", li, h, n)
			}
		}
	}

	errs = append(errs, checkPhases(p, n, out, linkBW)...)
	return errors.Join(errs...)
}

// checkRoute verifies that path leads from src to dst over circuits.
func checkRoute(src, dst int, path []int, link map[[2]int]bool) error {
	if len(path) < 2 || path[0] != src || path[len(path)-1] != dst {
		return fmt.Errorf("route %d->%d is %v, which does not run from source to destination", src, dst, path)
	}
	for i := 1; i < len(path); i++ {
		if !link[[2]int{path[i-1], path[i]}] {
			return fmt.Errorf("route %d->%d hop %d->%d has no circuit", src, dst, path[i-1], path[i])
		}
	}
	return nil
}

// checkPhases compares each predicted phase with the per-server byte
// bound: a server cannot send faster than its out-circuits carry.
func checkPhases(p *topoopt.Plan, n int, out []int, linkBW float64) []error {
	mp := make([]float64, n)
	for s, row := range p.Demand.MP {
		for d, b := range row {
			if s != d && s < n && b > 0 {
				mp[s] += float64(b)
			}
		}
	}
	ar := make([]float64, n)
	for _, g := range p.Demand.Groups {
		k := len(g.Members)
		if k < 2 {
			continue
		}
		for _, m := range g.Members {
			if m >= 0 && m < n {
				ar[m] += 2 * float64(k-1) / float64(k) * float64(g.Bytes)
			}
		}
	}
	var errs []error
	phase := func(name string, got float64, bytes []float64) {
		for s, b := range bytes {
			if b == 0 {
				continue
			}
			egress := float64(out[s]) * linkBW
			if egress <= 0 {
				errs = append(errs, fmt.Errorf("%s phase: server %d has %.0f bytes to send and no egress", name, s, b))
				continue
			}
			if need := b * 8 / egress; got < need*(1-phaseSlack) {
				errs = append(errs, fmt.Errorf("%s phase %.6gs is shorter than server %d's %.6gs to send %.0f bytes",
					name, got, s, need, b))
			}
		}
	}
	phase("MP", p.PredictedIteration.MPSeconds, mp)
	phase("AllReduce", p.PredictedIteration.AllReduceSeconds, ar)
	return errs
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
