package flexnet

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"topoopt/internal/model"
	"topoopt/internal/parallel"
	"topoopt/internal/topo"
	"topoopt/internal/traffic"
)

// fabricEval builds the same estimator CoOptimize hands to MCMC: demand
// from the strategy, analytic iteration estimate on a fixed fabric. It is
// pure over immutable inputs, hence safe for concurrent chains.
func fabricEval(t testing.TB, m *model.Model, n int) Evaluator {
	t.Helper()
	fab := NewSwitchFabric(topo.IdealSwitch(n, 400e9))
	return func(s parallel.Strategy) float64 {
		d, err := traffic.FromStrategy(m, s, m.BatchPerGPU)
		if err != nil {
			return inf
		}
		return EstimateIteration(fab, d, s.MaxComputeTime(m, model.A100, m.BatchPerGPU))
	}
}

// TestMCMCParallelDeterministic is the determinism table: for every K,
// the same seed must yield the identical strategy and cost across repeat
// runs, across worker counts, and across GOMAXPROCS settings.
func TestMCMCParallelDeterministic(t *testing.T) {
	m := model.DLRMPreset(model.Sec6)
	n := 12
	eval := fabricEval(t, m, n)
	for _, k := range []int{1, 2, 8} {
		base, baseCost := MCMCSearch(m, n, 0, eval, MCMCConfig{
			Iters: 200, Seed: 11, Parallelism: k,
		})
		for _, workers := range []int{1, 3, 8} {
			st, c := MCMCSearch(m, n, 0, eval, MCMCConfig{
				Iters: 200, Seed: 11, Parallelism: k, Workers: workers,
			})
			if c != baseCost || st.Fingerprint() != base.Fingerprint() {
				t.Errorf("K=%d workers=%d: cost %g fp %q differ from workers-default run (cost %g)",
					k, workers, c, st.Fingerprint(), baseCost)
			}
		}
		old := runtime.GOMAXPROCS(4)
		st, c := MCMCSearch(m, n, 0, eval, MCMCConfig{
			Iters: 200, Seed: 11, Parallelism: k,
		})
		runtime.GOMAXPROCS(old)
		if c != baseCost || st.Fingerprint() != base.Fingerprint() {
			t.Errorf("K=%d: result changed under GOMAXPROCS=4", k)
		}
	}
}

// TestMCMCParallelismZeroIsOne pins the wire-format aliasing: an unset
// Parallelism and an explicit 1 are the same computation.
func TestMCMCParallelismZeroIsOne(t *testing.T) {
	m := model.DLRMPreset(model.Sec6)
	eval := fabricEval(t, m, 8)
	st0, c0 := MCMCSearch(m, 8, 0, eval, MCMCConfig{Iters: 120, Seed: 3})
	st1, c1 := MCMCSearch(m, 8, 0, eval, MCMCConfig{Iters: 120, Seed: 3, Parallelism: 1})
	if c0 != c1 || st0.Fingerprint() != st1.Fingerprint() {
		t.Errorf("Parallelism 0 vs 1 diverge: %g vs %g", c0, c1)
	}
}

// TestMCMCParallelNotWorseThanSingleChain is the quality regression
// gate: with the same total proposal budget, the multi-chain engine
// (shared memo + pull-only best exchange) must not return a worse cost
// than the single sequential chain. Deterministic seeds make this a
// stable pin, not a flaky statistical claim.
func TestMCMCParallelNotWorseThanSingleChain(t *testing.T) {
	cases := []struct {
		name string
		m    *model.Model
		n    int
	}{
		{"dlrm-sec6", model.DLRMPreset(model.Sec6), 12},
		{"dlrm-small", smallDLRM(), 8},
	}
	for _, tc := range cases {
		eval := fabricEval(t, tc.m, tc.n)
		for _, seed := range []int64{1, 7, 42} {
			_, single := MCMCSearch(tc.m, tc.n, 0, eval, MCMCConfig{
				Iters: 400, Seed: seed,
			})
			for _, k := range []int{2, 4, 8} {
				_, multi := MCMCSearch(tc.m, tc.n, 0, eval, MCMCConfig{
					Iters: 400, Seed: seed, Parallelism: k,
				})
				if multi > single {
					t.Errorf("%s seed=%d K=%d: multi-chain cost %g worse than single chain %g",
						tc.name, seed, k, multi, single)
				}
			}
		}
	}
}

// TestMCMCParallelCancellation exercises the per-chain context poll under
// real concurrency (meaningful under -race): chains running on several
// workers must stop promptly after cancellation and still return a valid
// strategy.
func TestMCMCParallelCancellation(t *testing.T) {
	m := model.DLRMPreset(model.Sec6)
	n := 12
	ctx, cancel := context.WithCancel(context.Background())
	var evals atomic.Int64
	slowEval := func(s parallel.Strategy) float64 {
		if evals.Add(1) == 20 {
			cancel()
		}
		time.Sleep(100 * time.Microsecond)
		return float64(len(s.ShardedLayers()) + 1)
	}
	st, _ := MCMCSearch(m, n, 0, slowEval, MCMCConfig{
		Iters: 100000, Seed: 1, Parallelism: 8, Workers: 4, Ctx: ctx,
	})
	if err := st.Validate(m); err != nil {
		t.Fatalf("cancelled parallel search returned invalid strategy: %v", err)
	}
	// Each of the 4 workers can overshoot by at most the epoch in flight;
	// anything near the full budget means cancellation was ignored.
	if got := evals.Load(); got > 20+8*mcmcExchangePeriod {
		t.Errorf("search kept evaluating after cancel: %d evals", got)
	}
}

// TestCoOptimizeParallelDeterministic pins the full alternating loop:
// same seed + same K must converge to the identical plan inputs.
func TestCoOptimizeParallelDeterministic(t *testing.T) {
	m := smallDLRM()
	cfg := CoOptConfig{
		N: 16, Degree: 4, LinkBW: 100e9, Rounds: 2, MCMCIters: 60, Seed: 42,
		Parallelism: 4,
	}
	a, err := CoOptimize(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SearchWorkers = 2
	b, err := CoOptimize(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Strategy.Fingerprint() != b.Strategy.Fingerprint() {
		t.Error("CoOptimize strategies diverge across worker counts")
	}
	if a.IterTime != b.IterTime {
		t.Errorf("CoOptimize iteration times diverge: %+v vs %+v", a.IterTime, b.IterTime)
	}
}

// TestChainSeedDerivation pins the chain-seed contract: chain 0 replays
// the root seed and distinct chains get distinct sources.
func TestChainSeedDerivation(t *testing.T) {
	if chainSeed(99, 0) != 99 {
		t.Fatalf("chainSeed(99, 0) = %d, want 99 (chain 0 must replay the sequential search)", chainSeed(99, 0))
	}
	seen := map[int64]bool{}
	for i := 0; i < MaxParallelism; i++ {
		s := chainSeed(1, i)
		if seen[s] {
			t.Fatalf("duplicate chain seed %d at chain %d", s, i)
		}
		seen[s] = true
	}
}

// TestMemoStoreShardsCoverKeys sanity-checks the memo store: every
// inserted key is readable back.
func TestMemoStoreShardsCoverKeys(t *testing.T) {
	ms := make(memoStore)
	m := smallDLRM()
	st := parallel.Hybrid(m, 8)
	keys := []string{st.Fingerprint(), parallel.DataParallel(m, 8).Fingerprint(), "", "x"}
	for i, k := range keys {
		ms.put(k, float64(i))
	}
	for i, k := range keys {
		if v, ok := ms.get(k); !ok || v != float64(i) {
			t.Errorf("get(%q) = %g, %v; want %d, true", k, v, ok, i)
		}
	}
}
