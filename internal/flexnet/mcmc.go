package flexnet

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"topoopt/internal/model"
	"topoopt/internal/parallel"
)

// Evaluator scores a strategy: lower is better (iteration seconds). It
// must be deterministic (MCMC results are memoized by strategy
// fingerprint) and, when the search runs more than one chain worker
// (Parallelism > 1 and Workers != 1), safe for concurrent use. The
// evaluators flexnet itself builds (traffic.FromStrategy +
// EstimateIteration over an immutable Fabric) satisfy both.
type Evaluator func(parallel.Strategy) float64

// DefaultMCMCIters is the strategy-search budget applied whenever a
// caller leaves the iteration count unset (≤ 0). It is the single place
// the default lives: CoOptimize, SearchOnFabric and the public
// Optimize/Compare entry points all inherit it from MCMCSearch.
const DefaultMCMCIters = 200

// mcmcExchangePeriod is the epoch length: how many proposals each chain
// runs between best-so-far exchanges. It is a fixed constant (not derived
// from the worker count), so the exchange schedule — and therefore the
// result — depends only on (Seed, Iters, Parallelism).
const mcmcExchangePeriod = 25

// mcmcTemp is the initial Metropolis temperature as a fraction of the
// starting cost. Temperature decays linearly to ~0 over each chain's own
// budget.
const mcmcTemp = 0.05

// MaxParallelism bounds MCMCConfig.Parallelism (and the wire-level
// Options.Parallelism): chains beyond any plausible core count only cost
// memory, and the bound keeps a hostile planning request from allocating
// an unbounded chain array.
const MaxParallelism = 64

// MCMCConfig parameterizes the FlexFlow-style Markov-chain Monte Carlo
// search over parallelization strategies (§4.1 uses FlexFlow's search in
// the Comp.×Comm. plane).
type MCMCConfig struct {
	// Iters is the total proposal budget across all chains (default
	// DefaultMCMCIters). With Parallelism K it is split as evenly as
	// possible: chain i gets Iters/K proposals, the first Iters%K chains
	// one extra.
	Iters int
	Seed  int64
	// Ctx, when non-nil, is checked by every chain between its own
	// iterations: a cancelled or expired context stops all chains early
	// and the best strategy found so far is returned. The check sits
	// between iterations (never inside an evaluation), so it adds no cost
	// to the simulation hot path.
	Ctx context.Context
	// Parallelism is the number of independent chains K (default 1).
	// Each chain draws from its own rand.Source derived deterministically
	// from Seed, so the result depends only on (Seed, Iters, Parallelism)
	// — never on Workers, GOMAXPROCS or scheduling. K=1 reproduces the
	// original sequential chain exactly.
	Parallelism int
	// Workers bounds the goroutines that execute chain epochs (default
	// min(Parallelism, GOMAXPROCS)). Purely an execution hint: any value
	// produces byte-identical results. Services use it to keep
	// per-request search threads within a global budget.
	Workers int
	// Progress, when non-nil, is called at every epoch barrier with the
	// proposals consumed so far across all chains and the total budget:
	// (done, cfg.Iters), done monotonically increasing within one search.
	// Searches that never reach a barrier (a model with no shardable
	// layers resolves in the two canonical evaluations) report nothing. It runs on the goroutine driving the barrier
	// while no chain executes, so it may touch shared state without
	// synchronizing against the chains; it must be cheap — it sits
	// between every epoch. Purely observational: the search result is
	// identical with or without it.
	Progress func(done, total int)
	// Warm lists extra starting candidates evaluated alongside the
	// canonical hybrid and pure-DP starts: every chain begins from the
	// best of all starts, and the global argmin can be a warm candidate
	// itself. Callers replanning a related configuration (the fleet
	// simulator re-searching a job's strategy on a degraded fabric) seed
	// it with the previous plan so the search starts at a known-good
	// point instead of from scratch. Candidates that do not fit the
	// (model, n) pair are ignored; an empty slice reproduces the original
	// search proposal-for-proposal.
	Warm []parallel.Strategy
	// Patience, when > 0, stops the search once that many consecutive
	// epoch barriers pass without the global best improving — the early
	// exit that makes warm-started replans cheap: a search seeded at a
	// near-optimal point converges (stops proposing improvements) within
	// a few epochs and pays nothing for the rest of its budget. The
	// barrier schedule is fixed by (Iters, Parallelism), so early exit is
	// exactly as deterministic as the full run. Zero (the default) never
	// exits early and is byte-identical to the historical search.
	Patience int
	// OnWarmStart, when non-nil, is called once, before any chain runs,
	// whenever Warm contained at least one structurally fitting candidate.
	// adopted reports whether a warm candidate strictly beat the canonical
	// hybrid/DP starts and became the shared starting point. Purely
	// observational (telemetry counters).
	OnWarmStart func(adopted bool)
	// OnBest, when non-nil, receives the search's running global best:
	// once before any chain runs (the winning canonical or warm start)
	// and again at every epoch barrier where the global best improved.
	// Costs are therefore strictly decreasing across calls. The strategy
	// is a private clone; the callback runs on the barrier goroutine
	// while no chain executes, so it may touch shared state. Purely
	// observational: results are identical with or without it.
	OnBest func(s parallel.Strategy, cost float64)
}

// warmFits reports whether a warm-start candidate is structurally valid
// for the (model, n) pair being searched: candidates from a different
// shard size or model shape are silently skipped rather than crashing the
// evaluator on out-of-range hosts.
func warmFits(w parallel.Strategy, m *model.Model, n int) bool {
	return w.N == n && w.Validate(m) == nil
}

// mcmcChain is one independently-seeded Metropolis chain. Chains advance
// in epoch steps of mcmcExchangePeriod proposals; between epochs the
// engine merges their memo deltas into the shared store and runs the
// pull-only best exchange.
type mcmcChain struct {
	rng      *rand.Rand
	cur      parallel.Strategy
	curCost  float64
	best     parallel.Strategy
	bestCost float64
	t0       float64 // initial temperature (mcmcTemp × starting cost)
	iters    int     // this chain's share of the total budget
	done     int     // proposals consumed so far
	// delta holds evaluations made this epoch. It is chain-private while
	// chains run and merged into the shared store at the barrier, so
	// chains read the store without any synchronization.
	delta map[string]float64
}

// memoStore is the strategy-fingerprint → cost cache shared by all
// chains. Reads are mutex-free: writes only happen at epoch barriers
// (merge) or before chains start (put), when no chain goroutine is
// running, and the barrier's WaitGroup establishes the happens-before
// edge for the next epoch's readers.
type memoStore map[string]float64

func (ms memoStore) get(key string) (float64, bool) {
	v, ok := ms[key]
	return v, ok
}

// put inserts one entry. Only call while no chain is running.
func (ms memoStore) put(key string, v float64) {
	ms[key] = v
}

// merge folds a chain's epoch delta into the store. Only call at a
// barrier. Map iteration order is irrelevant: a fingerprint always maps
// to the same deterministic cost, whichever chain computed it.
func (ms memoStore) merge(delta map[string]float64) {
	for k, v := range delta {
		ms[k] = v
	}
}

// chainSeed derives chain i's rand.Source seed from the root seed using a
// splitmix64-style golden-ratio increment. chainSeed(root, 0) == root, so
// a single chain replays exactly the sequence the sequential search used.
func chainSeed(root int64, chain int) int64 {
	return int64(uint64(root) + uint64(chain)*0x9E3779B97F4A7C15)
}

// MCMCSearch explores layer-wise parallelization decisions starting from
// the hybrid strategy: proposals move a shard to another server, toggle a
// shardable layer between sharded and replicated, or swap two shard
// placements. With cfg.Parallelism = K > 1 the total budget is split
// across K independently-seeded chains that run concurrently on a bounded
// goroutine pool, share the evaluation memo, and exchange their
// best-so-far at epoch barriers (pull-only: a chain adopts the global
// best only when it strictly beats everything the chain has seen).
// Returns the global argmin over all chains and its cost; ties resolve to
// the lowest chain index, so the result is identical for any worker count
// or GOMAXPROCS setting.
func MCMCSearch(m *model.Model, n, batchPerGPU int, eval Evaluator, cfg MCMCConfig) (parallel.Strategy, float64) {
	if cfg.Iters <= 0 {
		cfg.Iters = DefaultMCMCIters
	}
	k := cfg.Parallelism
	if k <= 0 {
		k = 1
	}
	if k > MaxParallelism {
		k = MaxParallelism
	}

	// Evaluate the two canonical starting points once, shared by every
	// chain. (When the model has no shardable layers they coincide and
	// the fingerprint dedupes the second evaluation.)
	store := make(memoStore)
	hybrid := parallel.Hybrid(m, n)
	hybridCost := eval(hybrid)
	store.put(hybrid.Fingerprint(), hybridCost)
	// Also consider the pure-DP start; keep whichever is better (the
	// paper's final strategies are "either hybrid or pure data-parallel",
	// §5.1).
	dp := parallel.DataParallel(m, n)
	dpCost, ok := store.get(dp.Fingerprint())
	if !ok {
		dpCost = eval(dp)
		store.put(dp.Fingerprint(), dpCost)
	}

	best := hybrid.Clone()
	bestCost := hybridCost
	if dpCost < bestCost {
		best, bestCost = dp.Clone(), dpCost
	}
	// Warm-start candidates compete with the canonical starts on strictly
	// better cost, so with no (or unhelpful) candidates the search below is
	// proposal-for-proposal identical to the cold search.
	warmConsidered, warmAdopted := false, false
	for _, w := range cfg.Warm {
		if !warmFits(w, m, n) {
			continue
		}
		warmConsidered = true
		key := w.Fingerprint()
		c, ok := store.get(key)
		if !ok {
			c = eval(w)
			store.put(key, c)
		}
		if c < bestCost {
			best, bestCost = w.Clone(), c
			warmAdopted = true
		}
	}
	if warmConsidered && cfg.OnWarmStart != nil {
		cfg.OnWarmStart(warmAdopted)
	}
	if cfg.OnBest != nil {
		cfg.OnBest(best.Clone(), bestCost)
	}

	shardable := m.ShardableLayers()
	if len(shardable) == 0 {
		return best, bestCost
	}

	chains := make([]*mcmcChain, k)
	per, extra := cfg.Iters/k, cfg.Iters%k
	for i := range chains {
		c := &mcmcChain{
			rng:   rand.New(rand.NewSource(chainSeed(cfg.Seed, i))),
			iters: per,
			delta: make(map[string]float64),
		}
		if i < extra {
			c.iters++
		}
		// Every chain starts from the best known point — hybrid, pure DP
		// or a warm-start candidate (without warm candidates this is
		// exactly the historical hybrid-vs-DP selection).
		c.cur, c.curCost = best.Clone(), bestCost
		c.best, c.bestCost = c.cur.Clone(), c.curCost
		c.t0 = mcmcTemp * c.curCost
		chains[i] = c
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > k {
		workers = k
	}

	run := func(c *mcmcChain) { c.runEpoch(n, shardable, eval, store, cfg) }
	active := make([]*mcmcChain, 0, k)
	// globalBest tracks the best cost seen across barriers for the
	// patience early exit and the OnBest stream; barren counts barriers
	// without improvement.
	globalBest := bestCost
	barren := 0
	for {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			break
		}
		active = active[:0]
		for _, c := range chains {
			if c.done < c.iters {
				active = append(active, c)
			}
		}
		if len(active) == 0 {
			break
		}
		runChainEpochs(active, workers, run)
		// Barrier reached: merge epoch deltas (chain order; values are
		// deterministic per key so the order cannot matter) and run the
		// pull-only exchange.
		for _, c := range chains {
			store.merge(c.delta)
			clear(c.delta)
		}
		g := chains[0]
		for _, c := range chains[1:] {
			if c.bestCost < g.bestCost {
				g = c
			}
		}
		for _, c := range chains {
			if g.bestCost < c.bestCost {
				c.cur, c.curCost = g.best.Clone(), g.bestCost
				c.best, c.bestCost = g.best.Clone(), g.bestCost
			}
		}
		if g.bestCost < globalBest {
			globalBest = g.bestCost
			barren = 0
			if cfg.OnBest != nil {
				cfg.OnBest(g.best.Clone(), g.bestCost)
			}
		} else {
			barren++
		}
		if cfg.Progress != nil {
			done := 0
			for _, c := range chains {
				done += c.done
			}
			cfg.Progress(done, cfg.Iters)
		}
		if cfg.Patience > 0 && barren >= cfg.Patience {
			break
		}
	}

	for _, c := range chains {
		if c.bestCost < bestCost {
			best, bestCost = c.best, c.bestCost
		}
	}
	return best, bestCost
}

// runChainEpochs executes one epoch for every active chain on at most
// `workers` goroutines and waits for all of them (the barrier). A single
// worker — the K=1 case, or a service that pinned the search to one
// thread — runs inline with zero goroutine overhead.
func runChainEpochs(active []*mcmcChain, workers int, run func(*mcmcChain)) {
	if workers > len(active) {
		workers = len(active)
	}
	if workers <= 1 {
		for _, c := range active {
			run(c)
		}
		return
	}
	work := make(chan *mcmcChain)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for c := range work {
				run(c)
			}
		}()
	}
	for _, c := range active {
		work <- c
	}
	close(work)
	wg.Wait()
}

// runEpoch advances the chain by up to mcmcExchangePeriod proposals,
// stopping early when its budget is exhausted or cfg.Ctx is cancelled.
// The proposal/accept logic is exactly the original sequential search's,
// so one chain with the whole budget reproduces it move for move.
func (c *mcmcChain) runEpoch(n int, shardable []int, eval Evaluator, store memoStore, cfg MCMCConfig) {
	// memoEval consults the chain's epoch delta, then the shared store
	// (read-only during the epoch), and only then pays for an evaluation.
	memoEval := func(s parallel.Strategy) float64 {
		key := s.Fingerprint()
		if v, ok := c.delta[key]; ok {
			return v
		}
		if v, ok := store.get(key); ok {
			return v
		}
		v := eval(s)
		c.delta[key] = v
		return v
	}

	stop := c.done + mcmcExchangePeriod
	if stop > c.iters {
		stop = c.iters
	}
	for ; c.done < stop; c.done++ {
		if cfg.Ctx != nil && cfg.Ctx.Err() != nil {
			return
		}
		prop := c.cur.Clone()
		li := shardable[c.rng.Intn(len(shardable))]
		switch c.rng.Intn(3) {
		case 0: // move shard (or shard a replicated layer) to a random host
			prop.PlaceShard(li, c.rng.Intn(n))
		case 1: // toggle
			if prop.Layers[li].Kind == parallel.Sharded {
				prop.Replicate(li)
			} else {
				prop.PlaceShard(li, c.rng.Intn(n))
			}
		case 2: // swap placements of two sharded layers
			lj := shardable[c.rng.Intn(len(shardable))]
			if prop.Layers[li].Kind == parallel.Sharded && prop.Layers[lj].Kind == parallel.Sharded {
				prop.Layers[li].Group, prop.Layers[lj].Group =
					prop.Layers[lj].Group, prop.Layers[li].Group
			} else {
				prop.PlaceShard(li, c.rng.Intn(n))
			}
		}
		propCost := memoEval(prop)
		temp := c.t0 * (1 - float64(c.done)/float64(c.iters))
		accept := propCost <= c.curCost
		if !accept && temp > 0 {
			accept = c.rng.Float64() < math.Exp((c.curCost-propCost)/temp)
		}
		if accept {
			c.cur, c.curCost = prop, propCost
			if c.curCost < c.bestCost {
				c.best, c.bestCost = c.cur.Clone(), c.curCost
			}
		}
	}
}
