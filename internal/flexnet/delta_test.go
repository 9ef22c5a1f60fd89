package flexnet

import (
	"math/rand"
	"testing"

	"topoopt/internal/core"
	"topoopt/internal/model"
	"topoopt/internal/parallel"
	"topoopt/internal/route"
	"topoopt/internal/topo"
	"topoopt/internal/traffic"
)

// fullEval is the reference evaluator DeltaEval must reproduce
// bit-for-bit: the closure CoOptimize and SearchOnFabric historically
// handed to MCMC.
func fullEval(fab *Fabric, m *model.Model, batch int, gpu model.GPU) Evaluator {
	return func(s parallel.Strategy) float64 {
		d, err := traffic.FromStrategy(m, s, batch)
		if err != nil {
			return inf
		}
		return EstimateIteration(fab, d, s.MaxComputeTime(m, gpu, batch))
	}
}

// topoOptFabric builds a TopologyFinder fabric (rings + coin-change
// routes, the hardest rendering path) for the hybrid demand.
func topoOptFabric(t *testing.T, m *model.Model, n, degree int) *Fabric {
	t.Helper()
	dem, err := traffic.FromStrategy(m, parallel.Hybrid(m, n), m.BatchPerGPU)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := core.TopologyFinder(core.Config{N: n, D: degree, LinkBW: 100e9}, dem)
	if err != nil {
		t.Fatal(err)
	}
	return NewTopoOptFabric(tf)
}

// TestDeltaEvalGoldenIdentity is the golden pin: over a long random walk
// of MCMC-style proposals — plus consumer-set changes, misfit and
// invalid strategies — the incremental evaluator returns the exact
// float64 the full evaluation returns, on every fabric family.
func TestDeltaEvalGoldenIdentity(t *testing.T) {
	m := model.DLRMPreset(model.Sec6)
	n := 12
	expander, err := topo.Expander(n, 4, 25e9, 2)
	if err != nil {
		t.Fatal(err)
	}
	dims, err := topo.TorusDims(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	torusRoutes := route.NewTable(n)
	route.Torus{Dims: dims}.FillTable(torusRoutes)
	fabrics := map[string]*Fabric{
		"ideal-switch": NewSwitchFabric(topo.IdealSwitch(n, 400e9)),
		"fat-tree":     NewSwitchFabric(topo.FatTree(n, 25e9)),
		"oversub":      NewSwitchFabric(topo.OversubFatTree(n, 4, 100e9)),
		"expander":     NewSwitchFabric(expander),
		"torus":        NewRoutedFabric(topo.Torus(dims, 25e9), torusRoutes),
		"sip-ring":     NewSwitchFabric(topo.PhysicalRing(n, 4, 25e9)),
		"topoopt":      topoOptFabric(t, m, n, 4),
	}
	shardable := m.ShardableLayers()
	for name, fab := range fabrics {
		t.Run(name, func(t *testing.T) {
			full := fullEval(fab, m, m.BatchPerGPU, model.A100)
			de := NewDeltaEval(m, fab, m.BatchPerGPU, model.A100)
			rng := rand.New(rand.NewSource(7))
			cur := parallel.Hybrid(m, n)
			check := func(s parallel.Strategy, what string) {
				t.Helper()
				got, want := de.Eval(s), full(s)
				if got != want {
					t.Fatalf("%s: delta eval %v != full eval %v", what, got, want)
				}
			}
			check(cur, "hybrid start")
			for i := 0; i < 400; i++ {
				prop := cur.Clone()
				li := shardable[rng.Intn(len(shardable))]
				switch rng.Intn(6) {
				case 0:
					prop.PlaceShard(li, rng.Intn(n))
				case 1:
					if prop.Layers[li].Kind == parallel.Sharded {
						prop.Replicate(li)
					} else {
						prop.PlaceShard(li, rng.Intn(n))
					}
				case 2:
					lj := shardable[rng.Intn(len(shardable))]
					prop.Layers[li].Group, prop.Layers[lj].Group =
						prop.Layers[lj].Group, prop.Layers[li].Group
				case 3: // multi-host shard group
					a, b := rng.Intn(n), rng.Intn(n)
					if a == b {
						b = (b + 1) % n
					}
					prop.PlaceShard(li, a, b)
				case 4: // shrink a replica group (changes the consumers set)
					members := make([]int, 0, n-1)
					skip := rng.Intn(n)
					for v := 0; v < n; v++ {
						if v != skip {
							members = append(members, v)
						}
					}
					for lj := range prop.Layers {
						if prop.Layers[lj].Kind == parallel.Replicated {
							prop.Replicate(lj, members...)
						}
					}
				case 5: // whole-strategy jumps: DP, shard-scoped hybrid
					if rng.Intn(2) == 0 {
						prop = parallel.DataParallel(m, n)
					} else {
						prop = parallel.HybridOn(m, n, []int{1, 3, 5, 7})
					}
				}
				check(prop, "proposal")
				if rng.Intn(4) != 0 { // usually adopt, sometimes re-diff from cur
					cur = prop
				}
			}
			// Invalid strategies must come back inf without corrupting the
			// incumbent state for subsequent evaluations.
			bad := cur.Clone()
			bad.Layers[shardable[0]] = parallel.LayerStrategy{Kind: parallel.Sharded, Group: []int{n + 3}}
			check(bad, "out-of-range host")
			dup := cur.Clone()
			dup.Replicate(shardable[0], 2, 2)
			check(dup, "duplicate member")
			empty := cur.Clone()
			empty.Layers[shardable[0]] = parallel.LayerStrategy{Kind: parallel.Sharded}
			check(empty, "empty group")
			wrongShape := parallel.Hybrid(model.VGGPreset(model.Sec56), n)
			check(wrongShape, "wrong layer count")
			check(cur, "recovery after invalid")
		})
	}
}

// TestDeltaEvalSearchIdentity pins the end-to-end swap: MCMCSearch with
// the delta evaluator returns the identical strategy and cost as with
// the full closure, cold and warm, single- and multi-chain.
func TestDeltaEvalSearchIdentity(t *testing.T) {
	m := model.DLRMPreset(model.Sec6)
	n := 12
	fab := NewSwitchFabric(topo.FatTree(n, 25e9))
	full := fullEval(fab, m, m.BatchPerGPU, model.A100)
	warm, _ := MCMCSearch(m, n, 0, full, MCMCConfig{Iters: 100, Seed: 5})
	for _, cfg := range []MCMCConfig{
		{Iters: 200, Seed: 11},
		{Iters: 200, Seed: 11, Parallelism: 4},
		{Iters: 200, Seed: 11, Warm: []parallel.Strategy{warm}, Patience: 3},
	} {
		s1, c1 := MCMCSearch(m, n, 0, full, cfg)
		de := NewDeltaEval(m, fab, m.BatchPerGPU, model.A100)
		s2, c2 := MCMCSearch(m, n, 0, de.Eval, cfg)
		if c1 != c2 || s1.Fingerprint() != s2.Fingerprint() {
			t.Errorf("cfg %+v: delta-eval search diverged: %g vs %g", cfg, c1, c2)
		}
	}
}
