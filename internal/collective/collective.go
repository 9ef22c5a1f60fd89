// Package collective renders AllReduce operations into concrete traffic:
// ring-AllReduce under arbitrary "+p" permutations, multi-ring load
// balancing (the paper's NCCL TotientPerms integration, §6) and double
// binary trees (Appendix A).
//
// All renderings of the same group and byte count move the same per-node
// volume — this is the mutability property (§4.3) that TopoOpt exploits:
// permuting server labels changes where traffic lands without changing the
// AllReduce latency.
package collective

import (
	"fmt"

	"topoopt/internal/perm"
	"topoopt/internal/traffic"
)

// Ring adds the traffic of a ring-AllReduce over the group members using
// generation rule p (server members[i] sends to members[(i+p) mod k]).
// Each member sends 2·(k-1)/k·bytes to its ring successor. It panics,
// as perm.Ring does, if gcd(p, k) != 1.
func Ring(tm traffic.Matrix, members []int, p int, bytes int64) {
	k := len(members)
	if k < 2 {
		return
	}
	if perm.GCD(p, k) != 1 {
		panic(fmt.Sprintf("perm: p=%d not coprime with group size %d", p, k))
	}
	per := traffic.RingPerNodeBytes(bytes, k)
	for i, m := range members {
		tm.Add(m, members[(i+p)%k], per)
	}
}

// MultiRing load-balances one AllReduce of the given size across several
// ring permutations, splitting bytes evenly (the NCCL modification of §6).
// Remainder bytes go to the first ring.
func MultiRing(tm traffic.Matrix, members []int, ps []int, bytes int64) {
	if len(ps) == 0 || len(members) < 2 {
		return
	}
	share := bytes / int64(len(ps))
	rem := bytes - share*int64(len(ps))
	for i, p := range ps {
		b := share
		if i == 0 {
			b += rem
		}
		Ring(tm, members, p, b)
	}
}

// Tree is a rooted tree over group-local indices: Parent[i] is the local
// index of i's parent, or -1 for the root.
type Tree struct {
	Parent []int
}

// Validate checks that the tree is a single rooted tree.
func (t Tree) Validate() error {
	root := -1
	for i, p := range t.Parent {
		if p == -1 {
			if root != -1 {
				return fmt.Errorf("collective: multiple roots %d and %d", root, i)
			}
			root = i
			continue
		}
		if p < 0 || p >= len(t.Parent) {
			return fmt.Errorf("collective: node %d has invalid parent %d", i, p)
		}
	}
	if root == -1 {
		return fmt.Errorf("collective: no root")
	}
	// Cycle check: walk up from every node.
	for i := range t.Parent {
		at, steps := i, 0
		for t.Parent[at] != -1 {
			at = t.Parent[at]
			steps++
			if steps > len(t.Parent) {
				return fmt.Errorf("collective: cycle through node %d", i)
			}
		}
	}
	return nil
}

// BalancedBinaryTree builds the in-order balanced binary tree over k nodes
// used by the double-binary-tree collective: the root of a contiguous range
// is the 1-indexed element with the most trailing zeros, which makes all
// odd-indexed nodes leaves and even-indexed nodes internal (Appendix A).
func BalancedBinaryTree(k int) Tree {
	t := Tree{Parent: make([]int, k)}
	for i := range t.Parent {
		t.Parent[i] = -2 // unset sentinel
	}
	var build func(lo, hi, parent int)
	build = func(lo, hi, parent int) {
		if lo > hi {
			return
		}
		// Pick the element of [lo,hi] whose 1-indexed value has the most
		// trailing zeros.
		best, bestTZ := lo, trailingZeros(lo+1)
		for i := lo + 1; i <= hi; i++ {
			if tz := trailingZeros(i + 1); tz > bestTZ {
				best, bestTZ = i, tz
			}
		}
		t.Parent[best] = parent
		build(lo, best-1, best)
		build(best+1, hi, best)
	}
	build(0, k-1, -1)
	return t
}

func trailingZeros(v int) int {
	tz := 0
	for v&1 == 0 {
		v >>= 1
		tz++
	}
	return tz
}

// DoubleBinaryTrees returns the two trees of the DBT collective: the
// balanced binary tree and its shifted twin, in which every node's role
// (leaf vs internal) flips, giving each node the same total communication
// load (Sanders et al., Appendix A).
func DoubleBinaryTrees(k int) (Tree, Tree) {
	t1 := BalancedBinaryTree(k)
	t2 := Tree{Parent: make([]int, k)}
	for i := 0; i < k; i++ {
		// Node i in t2 plays the role of node (i+1) mod k in t1.
		role := (i + 1) % k
		p := t1.Parent[role]
		if p == -1 {
			t2.Parent[i] = -1
		} else {
			t2.Parent[i] = ((p - 1) + k) % k
		}
	}
	return t1, t2
}

// DBT adds the traffic of a double-binary-tree AllReduce over the members
// under the given label permutation π (members[π[i]] plays local role i;
// pass nil for identity). Each tree carries half the bytes: reduce up
// (child→parent) and broadcast down (parent→child).
func DBT(tm traffic.Matrix, members []int, pi []int, bytes int64) {
	k := len(members)
	if k < 2 {
		return
	}
	if pi == nil {
		pi = make([]int, k)
		for i := range pi {
			pi[i] = i
		}
	}
	if len(pi) != k {
		panic("collective: permutation length mismatch")
	}
	t1, t2 := DoubleBinaryTrees(k)
	half := bytes / 2
	for _, t := range []Tree{t1, t2} {
		for i, p := range t.Parent {
			if p == -1 {
				continue
			}
			child := members[pi[i]]
			parent := members[pi[p]]
			tm.Add(child, parent, half) // reduce
			tm.Add(parent, child, half) // broadcast
		}
	}
}
