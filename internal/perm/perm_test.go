package perm

import (
	"testing"
	"testing/quick"
)

func TestGCD(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{12, 8, 4}, {7, 13, 1}, {0, 5, 5}, {5, 0, 5}, {-12, 8, 4}, {1, 1, 1},
		{100, 100, 100},
	}
	for _, c := range cases {
		if got := GCD(c.a, c.b); got != c.want {
			t.Errorf("GCD(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestTotientKnownValues(t *testing.T) {
	want := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 12: 4,
		16: 8, 100: 40, 128: 64, 1008: 288}
	for n, w := range want {
		if got := Totient(n); got != w {
			t.Errorf("Totient(%d) = %d, want %d", n, got, w)
		}
	}
}

func TestTotientMatchesCoprimeCount(t *testing.T) {
	for n := 2; n <= 200; n++ {
		if got, want := Totient(n), len(Coprimes(n)); got != want {
			t.Errorf("Totient(%d) = %d but %d coprimes", n, got, want)
		}
	}
}

func TestIsPrime(t *testing.T) {
	primes := map[int]bool{2: true, 3: true, 5: true, 7: true, 11: true,
		13: true, 1: false, 0: false, 4: false, 9: false, 91: false, 97: true}
	for n, w := range primes {
		if got := IsPrime(n); got != w {
			t.Errorf("IsPrime(%d) = %v, want %v", n, got, w)
		}
	}
}

func TestCoprimes12(t *testing.T) {
	// Paper §4.3: for n = 12, p ∈ {1, 5, 7, 11}.
	got := Coprimes(12)
	want := []int{1, 5, 7, 11}
	if len(got) != len(want) {
		t.Fatalf("Coprimes(12) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Coprimes(12) = %v, want %v", got, want)
		}
	}
}

func TestTotientPermsPrimeOnly(t *testing.T) {
	got := TotientPerms(16, true)
	// Coprimes of 16 are odd numbers; prime-only keeps 1 and odd primes.
	want := []int{1, 3, 5, 7, 11, 13}
	if len(got) != len(want) {
		t.Fatalf("TotientPerms(16, prime) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TotientPerms(16, prime) = %v, want %v", got, want)
		}
	}
}

// Property (Theorem 2): p is a single-ring generator iff gcd(p,k) = 1.
func TestRingGenerationTheorem(t *testing.T) {
	for k := 2; k <= 64; k++ {
		coprime := make(map[int]bool)
		for _, p := range Coprimes(k) {
			coprime[p] = true
		}
		for p := 1; p < k; p++ {
			if isSingleRing(k, p) != coprime[p] {
				t.Errorf("k=%d p=%d: single-ring=%v coprime=%v",
					k, p, isSingleRing(k, p), coprime[p])
			}
		}
	}
}

func TestRingCoversGroupOnce(t *testing.T) {
	members := []int{3, 7, 11, 15, 19, 23, 27, 31}
	for _, p := range Coprimes(len(members)) {
		edges := Ring(members, p)
		if len(edges) != len(members) {
			t.Fatalf("p=%d: %d edges, want %d", p, len(edges), len(members))
		}
		outSeen := make(map[int]bool)
		inSeen := make(map[int]bool)
		for _, e := range edges {
			if outSeen[e.From] || inSeen[e.To] {
				t.Fatalf("p=%d: node repeated in ring", p)
			}
			outSeen[e.From] = true
			inSeen[e.To] = true
		}
	}
}

func TestRingNonCoprimePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for gcd(p,k) != 1")
		}
	}()
	Ring([]int{0, 1, 2, 3}, 2)
}

func TestSelectPermutationsBasic(t *testing.T) {
	cands := Coprimes(16) // 1,3,5,7,9,11,13,15
	got := SelectPermutations(16, 3, cands)
	if len(got) != 3 {
		t.Fatalf("selected %v, want 3 values", got)
	}
	if got[0] != 1 {
		t.Errorf("first selection = %d, want 1 (minimum candidate)", got[0])
	}
	// Geometric targets for k=16, d=3: ratio 16^(1/3)≈2.52 → 1, ~2.5, ~6.3.
	// Projections onto odd numbers: 1, 3, 7 (or 5/7 depending on ties).
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("selections not increasing: %v", got)
		}
	}
}

func TestSelectPermutationsPaperExample(t *testing.T) {
	// Paper Figs 7–9: 16 servers, 3 NICs → permutations +1, +3, +7.
	got := SelectPermutations(16, 3, Coprimes(16))
	want := []int{1, 3, 7}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSelectPermutationsDegenerate(t *testing.T) {
	if got := SelectPermutations(8, 0, Coprimes(8)); got != nil {
		t.Errorf("d=0: got %v, want nil", got)
	}
	if got := SelectPermutations(8, 10, Coprimes(8)); len(got) != len(Coprimes(8)) {
		t.Errorf("d>candidates: got %v, want all %v", got, Coprimes(8))
	}
	if got := SelectPermutations(8, 2, nil); got != nil {
		t.Errorf("no candidates: got %v, want nil", got)
	}
}

func TestSelectPermutationsDistinct(t *testing.T) {
	f := func(seed int64) bool {
		k := 4 + int(uint64(seed)%60)
		cands := Coprimes(k)
		for d := 1; d <= 6; d++ {
			got := SelectPermutations(k, d, cands)
			seen := make(map[int]bool)
			for _, p := range got {
				if seen[p] {
					return false
				}
				seen[p] = true
				if GCD(p, k) != 1 {
					return false
				}
			}
			if len(got) > d && d < len(cands) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// isSingleRing reports whether the directed edges i -> (i+p) mod k form
// one cycle covering all k nodes, by walking it: the independent check of
// the ring generation theorem (gcd(p,k) == 1).
func isSingleRing(k, p int) bool {
	if k < 2 {
		return false
	}
	seen := make([]bool, k)
	at, count := 0, 0
	for !seen[at] {
		seen[at] = true
		count++
		at = (at + p) % k
	}
	return count == k
}
