package parallel

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"topoopt/internal/model"
)

// The map-based implementations Servers, Validate, Clone and
// ComputeTimes replaced, kept as references: the mark-slice versions
// must agree with them on every strategy, error text included.

func refServers(s Strategy) []int {
	seen := make(map[int]bool)
	for _, ls := range s.Layers {
		for _, v := range ls.Group {
			seen[v] = true
		}
	}
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

func refValidate(s Strategy, m *model.Model) error {
	if len(s.Layers) != len(m.Layers) {
		return fmt.Errorf("parallel: %d layer strategies for %d layers", len(s.Layers), len(m.Layers))
	}
	for i, ls := range s.Layers {
		if len(ls.Group) == 0 {
			return fmt.Errorf("parallel: layer %d (%s) has empty group", i, m.Layers[i].Name)
		}
		seen := make(map[int]bool)
		for _, v := range ls.Group {
			if v < 0 || v >= s.N {
				return fmt.Errorf("parallel: layer %d places server %d outside [0,%d)", i, v, s.N)
			}
			if seen[v] {
				return fmt.Errorf("parallel: layer %d repeats server %d", i, v)
			}
			seen[v] = true
		}
		if ls.Kind == Sharded && !m.Layers[i].Shardable {
			return fmt.Errorf("parallel: layer %d (%s) is not shardable", i, m.Layers[i].Name)
		}
	}
	return nil
}

func refClone(s Strategy) Strategy {
	c := Strategy{N: s.N, Layers: make([]LayerStrategy, len(s.Layers))}
	for i, ls := range s.Layers {
		c.Layers[i] = LayerStrategy{Kind: ls.Kind, Group: append([]int(nil), ls.Group...)}
	}
	return c
}

func refComputeTimes(s Strategy, m *model.Model, gpu model.GPU, batchPerGPU int) []float64 {
	times := make([]float64, s.N)
	for i, ls := range s.Layers {
		l := m.Layers[i]
		switch ls.Kind {
		case Replicated:
			t := gpu.LayerTime(l, batchPerGPU)
			for _, v := range ls.Group {
				times[v] += t
			}
		case Sharded:
			globalBatch := batchPerGPU * len(refServers(s))
			perHost := model.Layer{
				Name:              l.Name,
				Kind:              l.Kind,
				ParamBytes:        l.ParamBytes / int64(len(ls.Group)),
				ActBytesPerSample: l.ActBytesPerSample,
				FwdFLOPsPerSample: l.FwdFLOPsPerSample,
			}
			t := gpu.LayerTime(perHost, globalBatch/len(ls.Group))
			for _, v := range ls.Group {
				times[v] += t
			}
		}
	}
	return times
}

// randomStrategy draws a valid strategy for m on n servers: a hybrid or
// shard-scoped hybrid start, then random placements, replica groups and
// shard groups in random server order.
func randomStrategy(rng *rand.Rand, m *model.Model, n int) Strategy {
	var s Strategy
	if rng.Intn(2) == 0 {
		s = Hybrid(m, n)
	} else {
		members := rng.Perm(n)[:1+rng.Intn(n)]
		s = HybridOn(m, n, members)
	}
	shardable := m.ShardableLayers()
	for moves := rng.Intn(2 * len(m.Layers)); moves > 0; moves-- {
		li := rng.Intn(len(m.Layers))
		group := rng.Perm(n)[:1+rng.Intn(n)]
		if len(shardable) > 0 && rng.Intn(2) == 0 {
			li = shardable[rng.Intn(len(shardable))]
			s.PlaceShard(li, group[:1+rng.Intn(min(3, len(group)))]...)
		} else {
			s.Replicate(li, group...)
		}
	}
	return s
}

// corrupt breaks s in one of the ways Validate reports.
func corrupt(rng *rand.Rand, s Strategy, m *model.Model) Strategy {
	li := rng.Intn(len(s.Layers))
	g := s.Layers[li].Group
	switch rng.Intn(6) {
	case 0:
		s.Layers[li].Group = nil
	case 1:
		s.Layers[li].Group = append(g, g[rng.Intn(len(g))]) // repeat
	case 2:
		s.Layers[li].Group = append(g, s.N+rng.Intn(3)) // past N
	case 3:
		s.Layers[li].Group = append(g, -1-rng.Intn(3))
	case 4:
		s.Layers[li].Kind = Sharded // fails unless the layer is shardable
	case 5:
		s.Layers = s.Layers[:len(s.Layers)-1]
	}
	return s
}

func referenceModels() []struct {
	m *model.Model
	n int
} {
	return []struct {
		m *model.Model
		n int
	}{
		{model.DLRMPreset(model.Sec53), 32},
		{model.DLRMPreset(model.Sec6), 12},
		{model.NCFPreset(), 16},
		{model.CANDLEPreset(model.Sec6), 6},
		{model.DLRMAllToAll(8), 5},
	}
}

// TestMarkSliceMatchesMapReference checks Servers, Validate, Clone and
// ComputeTimes against their map-based references on seeded random
// strategies, hybrid and shard-scoped (HybridOn), valid and corrupted.
func TestMarkSliceMatchesMapReference(t *testing.T) {
	var invalid int
	for _, tc := range referenceModels() {
		for seed := int64(0); seed < 60; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := randomStrategy(rng, tc.m, tc.n)
			name := fmt.Sprintf("%s n=%d seed %d", tc.m.Name, tc.n, seed)
			if got, want := s.Servers(), refServers(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Servers %v, reference %v", name, got, want)
			}
			if got, want := s.Clone(), refClone(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Clone %+v, reference %+v", name, got, want)
			}
			got := s.ComputeTimes(tc.m, model.A100, tc.m.BatchPerGPU)
			if want := refComputeTimes(s, tc.m, model.A100, tc.m.BatchPerGPU); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ComputeTimes %v, reference %v", name, got, want)
			}
			for _, st := range []Strategy{s, corrupt(rng, refClone(s), tc.m)} {
				got, want := st.Validate(tc.m), refValidate(st, tc.m)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: Validate %v, reference %v", name, got, want)
				}
				if want != nil {
					invalid++
				}
			}
		}
	}
	if invalid == 0 {
		t.Fatal("no corrupted strategy was invalid")
	}
	// Nil and empty groups clone to nil, as append onto nil did.
	s := Strategy{N: 2, Layers: []LayerStrategy{{Group: nil}, {Group: []int{}}, {Group: []int{1}}}}
	if got, want := s.Clone(), refClone(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("Clone %+v, reference %+v", got, want)
	}
}

// TestCloneGroupsAreCapped: every cloned group is capped at its length,
// so a swap, an append or a PlaceShard on the clone never reaches the
// source or a neighbouring layer's group in the shared backing array.
func TestCloneGroupsAreCapped(t *testing.T) {
	m := model.DLRMPreset(model.Sec6)
	s := randomStrategy(rand.New(rand.NewSource(1)), m, 12)
	s.Layers[3].Group = nil
	source := refClone(s)
	c := s.Clone()
	for i, ls := range c.Layers {
		if cap(ls.Group) != len(ls.Group) {
			t.Fatalf("layer %d: cap %d, len %d", i, cap(ls.Group), len(ls.Group))
		}
	}
	if c.Layers[3].Group != nil {
		t.Fatalf("nil group cloned to %v", c.Layers[3].Group)
	}
	// The same moves on a clone whose groups share no array.
	sh := m.ShardableLayers()
	mutate := func(x *Strategy) {
		x.PlaceShard(sh[2], 5, 6)
		x.Layers[0].Group = append(x.Layers[0].Group, 11)
		x.Layers[sh[0]].Group, x.Layers[sh[1]].Group = x.Layers[sh[1]].Group, x.Layers[sh[0]].Group
		x.Layers[sh[1]].Group = append(x.Layers[sh[1]].Group, 7)
		g := x.Layers[1].Group
		g[0], g[len(g)-1] = g[len(g)-1], g[0]
	}
	want := refClone(s)
	mutate(&c)
	mutate(&want)
	if !reflect.DeepEqual(s, source) {
		t.Fatal("moves on the clone changed the source")
	}
	for i := range c.Layers {
		if !reflect.DeepEqual(c.Layers[i], want.Layers[i]) {
			t.Fatalf("layer %d: %v, want %v", i, c.Layers[i], want.Layers[i])
		}
	}
}

// TestValidateLinearPerGroup: Validate on replica groups that hold all N
// servers costs time linear in N. A pairwise duplicate scan over one
// 2^18-server group is ~3·10^10 comparisons, tens of seconds; the linear
// check takes milliseconds, far under the bound.
func TestValidateLinearPerGroup(t *testing.T) {
	const n = 1 << 18
	m := &model.Model{Name: "wide", Layers: []model.Layer{{Name: "a"}, {Name: "b"}}}
	s := DataParallel(m, n)
	start := time.Now()
	if err := s.Validate(m); err != nil {
		t.Fatal(err)
	}
	s.Layers[1].Group[n-1] = 0
	if err := s.Validate(m); err == nil || err.Error() != "parallel: layer 1 repeats server 0" {
		t.Fatalf("err = %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Validate of two %d-server groups took %v", n, d)
	}
}
