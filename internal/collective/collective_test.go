package collective

import (
	"testing"

	"topoopt/internal/perm"
	"topoopt/internal/traffic"
)

func members(n int) []int {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return m
}

func TestRingTrafficVolume(t *testing.T) {
	tm := traffic.NewMatrix(16)
	Ring(tm, members(16), 1, 1600)
	per := traffic.RingPerNodeBytes(1600, 16)
	if tm[0][1] != per || tm[15][0] != per {
		t.Errorf("ring edges wrong: %d/%d want %d", tm[0][1], tm[15][0], per)
	}
	if tm.Total() != 16*per {
		t.Errorf("total %d, want %d", tm.Total(), 16*per)
	}
}

func TestRingMutability(t *testing.T) {
	// Mutability (§4.3): different permutations move the same volume with
	// the same per-edge magnitude, just between different pairs.
	for _, p := range perm.Coprimes(16) {
		tm := traffic.NewMatrix(16)
		Ring(tm, members(16), p, 3200)
		if tm.Total() != 16*traffic.RingPerNodeBytes(3200, 16) {
			t.Errorf("p=%d: volume changed by permutation", p)
		}
		// Every node sends exactly one edge of the ring volume.
		per := traffic.RingPerNodeBytes(3200, 16)
		for i := 0; i < 16; i++ {
			var sent int64
			for j := 0; j < 16; j++ {
				sent += tm[i][j]
			}
			if sent != per {
				t.Fatalf("p=%d node %d sent %d, want %d", p, i, sent, per)
			}
		}
	}
}

func TestRingPermutationMovesDiagonal(t *testing.T) {
	tm1 := traffic.NewMatrix(16)
	tm3 := traffic.NewMatrix(16)
	Ring(tm1, members(16), 1, 1000)
	Ring(tm3, members(16), 3, 1000)
	if tm1[0][1] == 0 || tm1[0][3] != 0 {
		t.Error("+1 ring should hit (0,1) not (0,3)")
	}
	if tm3[0][3] == 0 || tm3[0][1] != 0 {
		t.Error("+3 ring should hit (0,3) not (0,1)")
	}
}

func TestMultiRingSplitsBytes(t *testing.T) {
	tm := traffic.NewMatrix(16)
	MultiRing(tm, members(16), []int{1, 3, 7}, 3000)
	// Each ring carries 1000 bytes → per-edge 2·15/16·1000.
	per := traffic.RingPerNodeBytes(1000, 16)
	if tm[0][1] != per || tm[0][3] != per || tm[0][7] != per {
		t.Errorf("multi-ring edges: %d %d %d want %d", tm[0][1], tm[0][3], tm[0][7], per)
	}
}

func TestMultiRingRemainder(t *testing.T) {
	tm := traffic.NewMatrix(8)
	MultiRing(tm, members(8), []int{1, 3}, 1001)
	// First ring gets 501 bytes, second 500; total conserved modulo the
	// integer division inside RingPerNodeBytes.
	if tm[0][1] != traffic.RingPerNodeBytes(501, 8) {
		t.Errorf("remainder not given to first ring")
	}
}

func TestBalancedBinaryTreeShape(t *testing.T) {
	for _, k := range []int{2, 3, 7, 8, 15, 16, 31} {
		tr := BalancedBinaryTree(k)
		if err := tr.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// All odd 1-indexed nodes (even 0-indexed) are leaves.
		isParent := make([]bool, k)
		for _, p := range tr.Parent {
			if p >= 0 {
				isParent[p] = true
			}
		}
		for i := 0; i < k; i += 2 {
			if isParent[i] {
				t.Errorf("k=%d: node %d (odd 1-indexed) should be a leaf", k, i)
			}
		}
	}
}

func TestDoubleBinaryTreesComplementary(t *testing.T) {
	for _, k := range []int{8, 16, 32} {
		t1, t2 := DoubleBinaryTrees(k)
		if err := t1.Validate(); err != nil {
			t.Fatalf("t1 k=%d: %v", k, err)
		}
		if err := t2.Validate(); err != nil {
			t.Fatalf("t2 k=%d: %v", k, err)
		}
		// Appendix A: one half of nodes are leaves in each tree, and a
		// node that is a leaf in t1 is internal in t2 (except boundary).
		leaves1, leaves2 := leaves(t1), leaves(t2)
		if leaves1 != k/2 || leaves2 != k/2 {
			t.Errorf("k=%d: leaves %d/%d, want %d", k, leaves1, leaves2, k/2)
		}
	}
}

func TestDBTTrafficConservation(t *testing.T) {
	tm := traffic.NewMatrix(16)
	DBT(tm, members(16), nil, 1000)
	// Each tree has k-1 edges, each carrying bytes/2 both ways:
	// total = 2 trees × 15 edges × 2 dirs × 500.
	want := int64(2 * 15 * 2 * 500)
	if tm.Total() != want {
		t.Errorf("DBT total = %d, want %d", tm.Total(), want)
	}
}

func TestDBTPermutationMutability(t *testing.T) {
	tmID := traffic.NewMatrix(16)
	DBT(tmID, members(16), nil, 1000)
	pi := make([]int, 16)
	for i := range pi {
		pi[i] = (i + 5) % 16
	}
	tmP := traffic.NewMatrix(16)
	DBT(tmP, members(16), pi, 1000)
	if tmID.Total() != tmP.Total() {
		t.Error("permutation changed DBT volume")
	}
	// But the matrices differ.
	same := true
	for i := 0; i < 16 && same; i++ {
		for j := 0; j < 16; j++ {
			if tmID[i][j] != tmP[i][j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("permutation did not move traffic")
	}
}

func TestTreeValidateErrors(t *testing.T) {
	if err := (Tree{Parent: []int{-1, -1}}).Validate(); err == nil {
		t.Error("two roots should fail")
	}
	if err := (Tree{Parent: []int{1, 0}}).Validate(); err == nil {
		t.Error("cycle should fail")
	}
	if err := (Tree{Parent: []int{5}}).Validate(); err == nil {
		t.Error("bad parent index should fail")
	}
}

// leaves returns the number of leaf nodes of t.
func leaves(t Tree) int {
	isParent := make([]bool, len(t.Parent))
	for _, p := range t.Parent {
		if p >= 0 {
			isParent[p] = true
		}
	}
	n := 0
	for _, ip := range isParent {
		if !ip {
			n++
		}
	}
	return n
}
