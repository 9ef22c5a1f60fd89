// Package perm implements the group-theory machinery behind TopoOpt's
// AllReduce sub-topology construction: Euler-totient co-prime enumeration
// (TotientPerms, Algorithm 2 of the paper), the geometric-sequence
// permutation selection (SelectPermutations, Algorithm 3), and ring
// generation rules ("+p" permutations, Theorem 2).
//
// A ring generation rule p for a group of k servers connects group-local
// index i to (i+p) mod k. By the fundamental theorem of cyclic groups the
// rule yields a single Hamiltonian ring exactly when gcd(p, k) = 1, so the
// candidate set is {p < k : gcd(p,k)=1}, of size φ(k).
package perm

import (
	"fmt"
	"math"
	"sort"
)

// GCD returns the greatest common divisor of a and b (non-negative).
func GCD(a, b int) int {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Totient returns Euler's totient φ(n) = |{k < n : gcd(k,n) = 1}|.
// φ(1) = 1 by convention.
func Totient(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("perm: totient of non-positive %d", n))
	}
	result := n
	m := n
	for p := 2; p*p <= m; p++ {
		if m%p == 0 {
			for m%p == 0 {
				m /= p
			}
			result -= result / p
		}
	}
	if m > 1 {
		result -= result / m
	}
	return result
}

// IsPrime reports whether n is prime (trial division; n is at most a cluster
// size so this is plenty fast).
func IsPrime(n int) bool {
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

// Coprimes returns all p in [1, n) with gcd(p, n) = 1, ascending. Each is a
// valid ring generation rule for a group of n servers (Theorem 2).
func Coprimes(n int) []int {
	if n <= 0 {
		panic(fmt.Sprintf("perm: coprimes of non-positive %d", n))
	}
	if n == 1 {
		return []int{}
	}
	out := make([]int, 0, Totient(n))
	for p := 1; p < n; p++ {
		if GCD(p, n) == 1 {
			out = append(out, p)
		}
	}
	return out
}

// TotientPerms returns the candidate ring generation rules for an AllReduce
// group of size k (Algorithm 2). If primeOnly is set, candidates are
// restricted to p = 1 and prime p, shrinking the search space to O(k/ln k)
// per the Prime Number Theorem — the variant the paper uses at large scale.
func TotientPerms(k int, primeOnly bool) []int {
	ps := Coprimes(k)
	if !primeOnly {
		return ps
	}
	out := ps[:0:0]
	for _, p := range ps {
		if p == 1 || IsPrime(p) {
			out = append(out, p)
		}
	}
	return out
}

// SelectPermutations chooses d generation rules from the sorted candidate
// set cands so that the chosen values approximate the geometric sequence
// 1, x, x², … with ratio x = k^(1/d) (Algorithm 3). This bounds the
// AllReduce sub-topology diameter by O(d·k^(1/d)) (Theorem 1), giving MP
// transfers short detours. k is the group size. Returns at most d distinct
// values, ascending.
func SelectPermutations(k, d int, cands []int) []int {
	if d <= 0 || len(cands) == 0 {
		return nil
	}
	if d >= len(cands) {
		out := append([]int(nil), cands...)
		sort.Ints(out)
		return out
	}
	remaining := append([]int(nil), cands...)
	sort.Ints(remaining)
	chosen := []int{remaining[0]} // q = min candidate (normally 1)
	q := float64(remaining[0])
	remaining = remaining[1:]
	x := math.Pow(float64(k), 1/float64(d))
	// When k^(1/d) < 2 the geometric steps collapse onto already-chosen
	// values; the paper (Appendix E.2) recommends ratio at least 2 in that
	// regime.
	if x < 2 {
		x = 2
	}
	for i := 1; i < d && len(remaining) > 0; i++ {
		target := x * q
		best := 0
		for j := 1; j < len(remaining); j++ {
			if math.Abs(float64(remaining[j])-target) < math.Abs(float64(remaining[best])-target) {
				best = j
			}
		}
		chosen = append(chosen, remaining[best])
		q = float64(remaining[best])
		remaining = append(remaining[:best], remaining[best+1:]...)
	}
	sort.Ints(chosen)
	return chosen
}

// RingEdge is one directed connection of a ring permutation, in cluster
// node IDs.
type RingEdge struct {
	From, To int
}

// Ring expands generation rule p over the given ordered group members:
// members[i] -> members[(i+p) mod k] for every i. It panics if gcd(p, k)
// != 1 because the result would not be a single ring.
func Ring(members []int, p int) []RingEdge {
	k := len(members)
	if k < 2 {
		return nil
	}
	if GCD(p, k) != 1 {
		panic(fmt.Sprintf("perm: p=%d not coprime with group size %d", p, k))
	}
	edges := make([]RingEdge, 0, k)
	for i := 0; i < k; i++ {
		edges = append(edges, RingEdge{members[i], members[(i+p)%k]})
	}
	return edges
}
