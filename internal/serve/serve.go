// Package serve is the planning-service core behind cmd/topooptd: it
// turns the blocking topoopt library calls into a concurrent service with
// a bounded worker pool, a fingerprint-keyed LRU plan cache, in-flight
// request coalescing (N identical concurrent requests cost one
// optimization), async jobs, and metrics with latency quantiles.
//
// Request identity is a deterministic fingerprint of (ModelSpec, Options)
// — including the seed, so two requests that would walk different MCMC
// chains never alias. Cancellation flows through context: every queued
// optimization runs under a context that is cancelled as soon as all
// clients waiting on it have gone away, and topoopt.OptimizeContext polls
// it between MCMC iterations.
//
// The service is crash-safe and overload-safe (see DESIGN.md,
// "Durability and degradation"): with a Store configured, every
// completed result is appended to a write-ahead log before any waiter
// sees it and replayed into the LRU on boot (restart-warm,
// byte-identical cache hits), queued async jobs are journaled and
// re-enqueued after a crash, BeginDrain / Drain implement graceful
// SIGTERM shutdown (stop admission, finish in-flight work up to a
// deadline, cancel the rest), and an admission controller sheds
// requests whose estimated queue wait already exceeds their deadline.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"topoopt"
	"topoopt/internal/telemetry"
)

// OptimizeFunc computes a plan. It is injectable so tests and benchmarks
// can count or stub the expensive call; the default is
// topoopt.OptimizeContext.
type OptimizeFunc func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error)

// Config parameterizes a Service. Zero values select defaults.
type Config struct {
	// Workers bounds concurrent optimizations (default GOMAXPROCS).
	Workers int
	// QueueLen bounds queued-but-not-running work; a full queue rejects
	// with ErrQueueFull rather than growing without bound (default 64).
	QueueLen int
	// CacheEntries bounds the plan LRU (default 256).
	CacheEntries int
	// MaxJobs bounds tracked async jobs; the oldest finished jobs are
	// evicted past the bound (default 1024).
	MaxJobs int
	// SearchThreads is the total goroutine budget the service grants to
	// parallel MCMC chains across all concurrent optimizations (default
	// GOMAXPROCS). The budget is metered on demand: a request asking for
	// Parallelism K acquires up to K workers from whatever is currently
	// unclaimed — a lone request on an idle daemon gets min(K,
	// SearchThreads) genuinely concurrent chains, while a full pool
	// degrades each request toward one goroutine (never below, so
	// searches always make progress). The cap is an execution hint only:
	// a request's plan is identical whether its chains run on one
	// goroutine or eight.
	SearchThreads int
	// Optimize overrides the planner (tests); default
	// topoopt.OptimizeContext with the per-request search-worker cap
	// applied.
	Optimize OptimizeFunc
	// Store, when non-nil, is the durable plan store: completed results
	// are appended to its write-ahead log, queued async jobs are
	// journaled, the LRU is warmed from it on New, and it is compacted
	// and closed on Close/Drain. Nil keeps the service fully in-memory.
	Store *Store
	// DefaultDeadline, when positive, bounds every synchronous request
	// that does not carry its own X-Deadline-Ms header. The deadline
	// feeds both the waiter's context and the admission controller's
	// load shedding. Zero means no implicit deadline.
	DefaultDeadline time.Duration
}

// Service errors surfaced to transport layers.
var (
	ErrQueueFull = errors.New("serve: work queue full")
	ErrClosed    = errors.New("serve: service closed")
	ErrDraining  = errors.New("serve: draining, not admitting new work")
)

// OverloadError is returned by the admission controller when a
// request's estimated queue wait — queue depth × observed mean
// optimization time over the worker count — already exceeds the
// request's deadline, so queueing it would only burn a worker on a
// result nobody will wait for. The transport layer maps it to 429 with
// a Retry-After derived from EstimatedWait.
type OverloadError struct {
	QueueDepth    int
	EstimatedWait time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: overloaded: estimated queue wait %s exceeds the request deadline (queue depth %d)",
		e.EstimatedWait.Round(time.Millisecond), e.QueueDepth)
}

// PlanRequest is the wire request shared by POST /v1/plan and
// POST /v1/jobs.
type PlanRequest struct {
	Model   topoopt.ModelSpec `json:"model"`
	Options topoopt.Options   `json:"options"`
}

// Fingerprint returns the deterministic cache/coalescing key of the
// request: SHA-256 over the canonical JSON of (ModelSpec, Options), both
// normalized first so spelling variants of the same computation ("BERT"
// vs "bert", an implicit vs explicit default section, omitted vs default
// Rounds/MCMCIters/GPU) share one cache entry. The seed is part of
// Options, so identical workloads with different seeds are distinct
// entries.
func (r PlanRequest) Fingerprint() string {
	r.Model = r.Model.Canonical()
	r.Options = r.Options.Canonical()
	return fingerprintOf(r)
}

// fingerprintOf is the one hash behind every request shape's
// fingerprint: SHA-256 over the canonical JSON of key, hex-encoded. The
// digests are WAL keys and cluster ring positions, so their bytes must
// never change (TestFingerprintsGolden pins them).
func fingerprintOf(key any) string {
	b, err := json.Marshal(key)
	if err != nil {
		// Every key is plain, already-normalized data; Marshal cannot fail.
		panic(fmt.Sprintf("serve: fingerprint marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// flight is one in-progress computation — an optimization, a
// comparison, a fleet run or a sweep — that any number of identical
// requests wait on. waiters counts them; when the last one abandons the
// request, the flight's context is cancelled and the computation aborts
// at its next cancellation check (between MCMC iterations, between fleet
// events). The result carries both its typed value and its canonical
// bytes, so one coalescing/caching machinery serves every request shape:
// HTTP waiters write the bytes, Go callers cast the value to the type
// they asked for.
type flight struct {
	fp      string
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{}
	res     *result
	err     error
	waiters int
	// started flips when a worker dequeues the task; onStart callbacks
	// (job status transitions) fire at that moment. Both under Service.mu.
	started bool
	onStart []func()
	// prog is the flight's search-progress sink: the optimizer publishes
	// (proposals done, budget) into it at every MCMC epoch barrier, and
	// each waiter copies it into its trace on wake.
	prog *telemetry.Progress
	// Lifecycle timestamps for stage attribution, all under Service.mu:
	// enqueued at creation, startedAt when a worker dequeues the task,
	// searchedAt when the computation returns, finishedAt when the result
	// is published. A waiter clips these intervals against its own wait
	// window, so queue, search and persist stages are correct for
	// creators and late joiners alike.
	enqueued   time.Time
	startedAt  time.Time
	searchedAt time.Time
	finishedAt time.Time
}

// flightRun computes a flight's result under the flight's context.
type flightRun func(ctx context.Context) (*result, error)

// Service is the planning service. Create with New, serve HTTP with
// Handler, stop with Close.
type Service struct {
	cfg      Config
	optimize OptimizeFunc
	// chains meters SearchThreads across in-flight searches. Every
	// optimization AND every comparison acquires through it, so no
	// request type can bypass the thread budget.
	chains *chainBudget

	baseCtx    context.Context
	baseCancel context.CancelFunc
	queue      chan func()
	wg         sync.WaitGroup
	jobWG      sync.WaitGroup // async-job waiter goroutines
	store      *Store
	tel        *telemetry.Registry

	mu       sync.Mutex
	closed   bool
	draining bool // admission stopped; in-flight work finishing
	warmed   int  // cache entries replayed from the store on boot
	cache    *planCache
	// sim is the plan-similarity index over the cached plans: near-miss
	// requests warm-start their search from the nearest indexed neighbor.
	// Entries track the LRU (added on completion and WAL replay, removed
	// by the cache's eviction hook), all under mu.
	sim *simIndex
	// partials holds the anytime snapshot of every running plan flight,
	// keyed by fingerprint; GET /v1/jobs/{id} serves them as `partial`.
	partials map[string]*partialState
	flights  map[string]*flight
	jobs     map[string]*job
	jobID    uint64
	jobSeq   []string // creation order, for bounded eviction

	met *metrics

	// cluster is the sharding runtime, nil on an unsharded daemon. Set
	// once by EnableCluster before traffic; atomic so the per-request
	// forward check is lock-free.
	cluster atomic.Pointer[cluster]
}

// New starts a Service with cfg's worker pool running.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 64
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 256
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	if cfg.SearchThreads <= 0 {
		cfg.SearchThreads = runtime.GOMAXPROCS(0)
	}
	chains := &chainBudget{avail: cfg.SearchThreads}
	met := newMetrics()
	if cfg.Optimize == nil {
		cfg.Optimize = func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
			// SearchWorkers is server policy, never client input (it is
			// excluded from the wire format): acquire chain workers from
			// the shared budget for the duration of the optimization, so
			// concurrent parallel searches cannot oversubscribe the host
			// while a lone request gets the whole budget.
			granted := chains.acquire(o.Parallelism)
			defer chains.release(granted)
			o.SearchWorkers = granted
			// Progress is server-side instrumentation, like SearchWorkers:
			// each epoch barrier feeds the flight's progress sink (read by
			// waiters when they wake) and the daemon-wide proposal counter.
			// CoOptimize restarts done at every alternating-optimization
			// round; last tracks the reset so the counter only ever adds
			// the delta actually consumed.
			sink := telemetry.ProgressFromContext(ctx)
			last := 0
			o.Progress = func(done, total int) {
				if done < last {
					last = 0
				}
				met.addProposals(int64(done - last))
				last = done
				sink.Set(int64(done), int64(total))
			}
			return topoopt.OptimizeContext(ctx, m, o)
		}
	}
	sim := newSimIndex()
	cache := newPlanCache(cfg.CacheEntries)
	// An evicted plan must leave the similarity index with it — a warm
	// start needs the neighbor's strategy, which only the cache holds.
	// Eviction runs under Service.mu (cache.add is only called there), the
	// same lock guarding sim.
	cache.onEvict = sim.remove
	s := &Service{
		cfg:      cfg,
		optimize: cfg.Optimize,
		chains:   chains,
		store:    cfg.Store,
		tel:      telemetry.NewRegistry(0),
		queue:    make(chan func(), cfg.QueueLen),
		cache:    cache,
		sim:      sim,
		partials: make(map[string]*partialState),
		flights:  make(map[string]*flight),
		jobs:     make(map[string]*job),
		met:      met,
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	if s.store != nil {
		s.warmFromStore()
	}
	return s
}

// chainBudget meters the SearchThreads goroutine budget across in-flight
// searches on demand. acquire never blocks and never returns less than
// one (searches must always make progress), so when the budget is
// exhausted, extra requests run their chains sequentially; the soft
// floor lets avail go transiently negative and release restores it.
// Plans are unaffected by whatever is granted (the worker count is an
// execution hint — chain count and seeds fully determine the result).
type chainBudget struct {
	mu    sync.Mutex
	avail int
}

// acquire claims up to want workers (want ≤ 0 is treated as 1, the
// sequential search). Pair every acquire with a release of the grant.
func (b *chainBudget) acquire(want int) int {
	if want < 1 {
		want = 1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	g := 1
	if b.avail > 0 {
		g = want
		if g > b.avail {
			g = b.avail
		}
	}
	b.avail -= g
	return g
}

func (b *chainBudget) release(n int) {
	b.mu.Lock()
	b.avail += n
	b.mu.Unlock()
}

func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case fn := <-s.queue:
			fn()
		case <-s.baseCtx.Done():
			return
		}
	}
}

// Close stops the workers and fails all pending work with ErrClosed,
// then compacts and closes the durable store (if any). Idempotent. For
// a graceful shutdown that lets in-flight work finish, use Drain.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	if c := s.cluster.Swap(nil); c != nil {
		c.close() // stop the probe loop before tearing down workers
	}
	s.baseCancel()
	s.wg.Wait()
	s.jobWG.Wait()
	if s.store != nil {
		// A compacted snapshot makes the next boot replay the live set
		// instead of the full append history. Skipped on crash (kill -9),
		// where the WAL replay path takes over.
		if err := s.store.wal.Compact(); err != nil {
			s.met.storeError()
		}
		s.store.wal.Close()
	}
}

// BeginDrain stops admission: every subsequent Plan, Compare, SubmitJob
// and SubmitFleet call — cache hits included — fails with ErrDraining
// (a structured 503 with Retry-After at the HTTP layer), while work
// already admitted keeps running. Idempotent; the first step of a
// graceful shutdown, callable before the HTTP server stops listening so
// requests that raced past the listener still get the structured
// rejection.
func (s *Service) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Drain gracefully shuts the service down: admission stops immediately,
// in-flight optimizations and async jobs run to completion (their
// results are persisted to the store as they finish, as always), and
// when ctx expires whatever is still running is cancelled through the
// flight contexts — the MCMC engine observes cancellation between
// iterations, so stragglers abort quickly. Queued-but-unstarted async
// jobs stay journaled in the store and are re-enqueued on the next
// boot. Finally the workers are stopped and the store is compacted and
// closed. Returns nil if everything finished inside ctx, or ctx's error
// if the drain deadline forced cancellation.
func (s *Service) Drain(ctx context.Context) error {
	s.BeginDrain()
	var derr error
	if !s.awaitIdle(ctx) {
		derr = ctx.Err()
		s.baseCancel() // deadline: cancel the stragglers
	}
	s.Close()
	return derr
}

// awaitIdle polls until no flight (sync request or async job) remains
// in flight, or ctx expires.
func (s *Service) awaitIdle(ctx context.Context) bool {
	for {
		s.mu.Lock()
		idle := len(s.flights) == 0
		s.mu.Unlock()
		if idle {
			return true
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Plan returns the plan for req, consulting the cache first and coalescing
// concurrent identical requests onto a single optimization. The returned
// bool reports whether the plan came from the cache. ctx cancels only this
// caller's wait; the underlying optimization keeps running while any other
// request still waits on it.
func (s *Service) Plan(ctx context.Context, req PlanRequest) (*topoopt.Plan, string, bool, error) {
	return typed[*topoopt.Plan](s.plan(ctx, req, req.Fingerprint(), func() (*topoopt.Model, error) {
		m, err := req.Model.Resolve()
		if err == nil {
			err = req.Options.Validate()
		}
		return m, err
	}, nil, nil))
}

// typed unwraps an execute-path answer for a Go caller: the result's
// value as T, decoded from stored bytes on its first typed use.
func typed[T any](res *result, fp string, hit bool, err error) (T, string, bool, error) {
	var v any
	if err == nil {
		v, err = res.value()
	}
	if err != nil {
		var zero T
		return zero, fp, hit, err
	}
	return v.(T), fp, hit, nil
}

// resolved wraps an already-resolved model for the plan call (the HTTP
// decode layer and jobs resolve exactly once up front).
func resolved(m *topoopt.Model) func() (*topoopt.Model, error) {
	return func() (*topoopt.Model, error) { return m, nil }
}

// plan is the core of Plan. resolve is only invoked on the
// flight-creating path, outside the service lock: cache hits and
// coalesced joins are served by fingerprint alone, so they never pay for
// model materialization or re-validation (a cached fingerprint implies
// the request was valid). onStart, when non-nil, fires once the
// optimization actually begins executing (async jobs use it to move from
// "queued" to "running"). tr, when non-nil, receives the request's stage
// breakdown — cache lookup, admission, queue wait and search time, the
// latter two clipped to this waiter's own wait window so coalesced
// joiners never claim time they did not spend waiting.
func (s *Service) plan(ctx context.Context, req PlanRequest, fp string, resolve func() (*topoopt.Model, error), onStart func(), tr *telemetry.Trace) (*result, string, bool, error) {
	res, hit, err := s.execute(ctx, fp, func() (flightRun, error) {
		m, rerr := resolve()
		if rerr != nil {
			return nil, rerr
		}
		return s.planRun(m, req, fp), nil
	}, onStart, tr)
	return res, fp, hit, err
}

// execute is the shared cache → coalesce → admit → queue → wait sequence
// every request shape (plan, compare, fleet, sweep) rides. makeRun is
// only invoked on the flight-creating path, outside the service lock:
// cache hits and coalesced joins are served by fingerprint alone, so
// they never pay for request materialization (a cached fingerprint
// implies the request was valid). The returned bool reports a cache hit.
func (s *Service) execute(ctx context.Context, fp string, makeRun func() (flightRun, error), onStart func(), tr *telemetry.Trace) (*result, bool, error) {
	tr.Start(telemetry.StageCache)
	cached, f, err := s.joinOrCreate(fp, nil, onStart)
	tr.End()
	if err != nil {
		return nil, false, err
	}
	if cached != nil {
		return cached, true, nil
	}
	if f == nil {
		// Miss: this request is about to occupy a queue slot, so this is
		// where the admission controller sheds work that cannot meet its
		// deadline anyway (cache hits and coalesced joins above never
		// shed — they ride work that is already paid for).
		tr.Start(telemetry.StageAdmission)
		serr := s.shedCheck(ctx)
		tr.End()
		if serr != nil {
			return nil, false, serr
		}
		// Materialize the run without holding the lock, then race to
		// create the flight (a concurrent identical request may win, in
		// which case we join its flight instead).
		tr.Start(telemetry.StageDecode)
		run, rerr := makeRun()
		tr.End()
		if rerr != nil {
			return nil, false, rerr
		}
		tr.Start(telemetry.StageCache)
		cached, f, err = s.joinOrCreate(fp, run, onStart)
		tr.End()
		if err != nil {
			return nil, false, err
		}
		if cached != nil {
			return cached, true, nil
		}
	}
	joined := time.Now()
	res, err := s.waitFlight(ctx, f)
	s.traceWait(tr, f, joined)
	return res, false, err
}

// traceWait attributes a waiter's time on f to the queue, search and
// persist stages: the flight's [enqueued, started], [started, searched]
// and [searched, finished] intervals clipped to [joined, now]. For the
// creator the clip is the whole flight; a joiner that arrived mid-search
// only claims its own wait. Also copies the flight's search-progress
// counter into the trace.
func (s *Service) traceWait(tr *telemetry.Trace, f *flight, joined time.Time) {
	if tr == nil {
		return
	}
	woke := time.Now()
	s.mu.Lock()
	enq, started, searched, finished := f.enqueued, f.startedAt, f.searchedAt, f.finishedAt
	s.mu.Unlock()
	tr.Add(telemetry.StageQueue, overlap(enq, started, joined, woke))
	if !started.IsZero() {
		tr.Add(telemetry.StageSearch, overlap(started, searched, joined, woke))
	}
	tr.Add(telemetry.StagePersist, overlap(searched, finished, joined, woke))
	tr.SetSearchProgress(f.prog.Load())
	tr.SetWarm(f.prog.Warm())
}

// overlap returns the length of [a0, a1] ∩ [b0, b1]. A zero a0 means the
// interval never opened (length 0); a zero a1 means it is still open and
// clamps to b1.
func overlap(a0, a1, b0, b1 time.Time) time.Duration {
	if a0.IsZero() {
		return 0
	}
	if a1.IsZero() || a1.After(b1) {
		a1 = b1
	}
	if a0.Before(b0) {
		a0 = b0
	}
	if d := a1.Sub(a0); d > 0 {
		return d
	}
	return 0
}

// planRun adapts the optimizer to the generic flight runner, layering the
// incremental-replanning machinery around the call:
//
//   - Warm start: a near-miss request (exact-fingerprint cache miss, but a
//     same-model-same-servers neighbor is indexed) seeds its search with
//     the neighbor's converged strategy and the patience early exit. The
//     optimizer adopts the seed only when it strictly beats the canonical
//     starts under this request's own evaluation, so the result is never
//     worse than cold — just reached with a fraction of the evaluations.
//   - Anytime streaming: the search's best-so-far is published into the
//     service's partial slot at every improvement, so async jobs expose a
//     monotonically improving `partial` result while running.
//   - Indexing: the completed plan joins the similarity index, becoming a
//     warm-start donor for future near-misses.
func (s *Service) planRun(m *topoopt.Model, req PlanRequest, fp string) flightRun {
	creq := PlanRequest{Model: req.Model.Canonical(), Options: req.Options.Canonical()}
	return func(ctx context.Context) (*result, error) {
		o := req.Options
		if warm, ok := s.simNeighbor(creq, fp); ok {
			o.WarmStart = []topoopt.Strategy{warm}
			o.Patience = warmPatience
			o.OnWarmStart = func(adopted bool) {
				if adopted {
					s.met.warmImproved()
				}
			}
			s.met.warmStart()
			// Mark the flight's progress sink so every waiter's trace (and
			// /debug/requests) records that this search ran warm.
			telemetry.ProgressFromContext(ctx).MarkWarm()
		}
		ps := s.beginPartial(fp)
		defer s.endPartial(fp, ps)
		o.OnBest = ps.publish
		p, err := s.optimize(ctx, m, o)
		if err != nil {
			return nil, err
		}
		s.simAdd(fp, creq)
		return computed(kindPlan, p), nil
	}
}

// simNeighbor returns the converged strategy of creq's nearest indexed
// neighbor (excluding the request's own fingerprint), if the neighbor's
// plan is still cached. Index and cache are consulted atomically under
// the service lock; an index entry whose plan has just been evicted (or
// was indexed from the WAL before the cache replay reached it) is simply
// skipped — warm starts are an optimization, never a dependency. A
// neighbor warmed from the store is decoded here, outside the lock, on
// its first use as a donor.
func (s *Service) simNeighbor(creq PlanRequest, selfFp string) (topoopt.Strategy, bool) {
	var res *result
	s.mu.Lock()
	if nfp, ok := s.sim.nearest(creq, selfFp); ok {
		res, _ = s.cache.get(nfp)
	}
	s.mu.Unlock()
	if res == nil {
		return topoopt.Strategy{}, false
	}
	v, err := res.value()
	p, ok := v.(*topoopt.Plan)
	if err != nil || !ok || p == nil {
		return topoopt.Strategy{}, false
	}
	return p.Strategy, true
}

// simAdd indexes a completed plan's canonical request under its
// fingerprint.
func (s *Service) simAdd(fp string, creq PlanRequest) {
	s.mu.Lock()
	s.sim.add(fp, creq)
	s.mu.Unlock()
}

// simRequest returns the canonical request indexed under fp, if any —
// the persist path uses it to write the request into the WAL alongside
// the plan.
func (s *Service) simRequest(fp string) (PlanRequest, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sim.request(fp)
}

// beginPartial registers the anytime slot a starting plan flight streams
// its best-so-far into; endPartial retires it when the flight completes
// (the final result supersedes any partial).
func (s *Service) beginPartial(fp string) *partialState {
	ps := &partialState{}
	s.mu.Lock()
	s.partials[fp] = ps
	s.mu.Unlock()
	return ps
}

func (s *Service) endPartial(fp string, ps *partialState) {
	s.mu.Lock()
	if s.partials[fp] == ps {
		delete(s.partials, fp)
	}
	s.mu.Unlock()
}

// waitFlight blocks until the flight completes, the caller's ctx is
// cancelled (dropping this waiter), or the service closes. A completed
// result always wins a race against cancellation or shutdown: during a
// drain the flight may finish in the same instant the service closes,
// and the waiter must report the work that was actually done.
func (s *Service) waitFlight(ctx context.Context, f *flight) (*result, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
		select {
		case <-f.done:
			return f.res, f.err
		default:
		}
		s.abandon(f)
		return nil, ctx.Err()
	case <-s.baseCtx.Done():
		select {
		case <-f.done:
			return f.res, f.err
		default:
		}
		return nil, ErrClosed
	}
}

// joinOrCreate is the locked cache-lookup → flight-join → flight-create
// sequence. With run == nil it only looks up and joins, returning
// (nil, nil, nil) on a miss so the caller can resolve the request's
// inputs lock-free and call again with run set.
func (s *Service) joinOrCreate(fp string, run flightRun, onStart func()) (*result, *flight, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, ErrClosed
	}
	if s.draining {
		s.mu.Unlock()
		return nil, nil, ErrDraining
	}
	if v, ok := s.cache.get(fp); ok {
		s.mu.Unlock()
		s.met.cacheHit()
		return v, nil, nil
	}
	if f, ok := s.flights[fp]; ok {
		f.waiters++
		fireNow := false
		if onStart != nil {
			if f.started {
				fireNow = true
			} else {
				f.onStart = append(f.onStart, onStart)
			}
		}
		s.mu.Unlock()
		if fireNow {
			onStart()
		}
		s.met.coalesce()
		return nil, f, nil
	}
	if run == nil {
		s.mu.Unlock()
		return nil, nil, nil
	}
	prog := new(telemetry.Progress)
	fctx, cancel := context.WithCancel(telemetry.ContextWithProgress(s.baseCtx, prog))
	f := &flight{fp: fp, ctx: fctx, cancel: cancel, done: make(chan struct{}),
		waiters: 1, prog: prog, enqueued: time.Now()}
	if onStart != nil {
		f.onStart = append(f.onStart, onStart)
	}
	task := func() { s.runFlight(f, run) }
	select {
	case s.queue <- task:
		s.flights[fp] = f
	default:
		cancel()
		s.mu.Unlock()
		s.met.queueFullDrop()
		return nil, nil, ErrQueueFull
	}
	s.mu.Unlock()
	s.met.cacheMiss()
	return nil, f, nil
}

// runFlight executes one flight on a worker: mark started, fire the
// start callbacks, then compute — unless every waiter already left
// while the task sat in the queue, in which case the dead task finishes
// immediately instead of running a doomed computation.
func (s *Service) runFlight(f *flight, run flightRun) {
	s.mu.Lock()
	f.started = true
	f.startedAt = time.Now()
	cbs := f.onStart
	f.onStart = nil
	s.mu.Unlock()
	for _, cb := range cbs {
		cb()
	}
	if err := f.ctx.Err(); err != nil {
		s.finish(f, nil, err)
		return
	}
	t0 := time.Now()
	res, err := run(f.ctx)
	if err == nil {
		// Completed executions feed the admission controller's service-
		// time estimate (cancelled or failed runs would bias it short).
		s.met.observeService(time.Since(t0).Seconds())
	}
	s.finish(f, res, err)
}

// finish publishes a flight's result. A success is appended to the
// store before it is cached or any waiter is released, so no client ever
// reads a result that a kill -9 could still lose; the encode and the
// append run outside the service lock, so a slow disk never stalls cache
// lookups. Waiters book both as their persist stage, and write the bytes
// the append encoded.
func (s *Service) finish(f *flight, res *result, err error) {
	stored := err == nil && s.store != nil
	if stored {
		s.mu.Lock()
		f.searchedAt = time.Now()
		s.mu.Unlock()
		s.persist(f.fp, res)
	}
	s.mu.Lock()
	if s.flights[f.fp] == f {
		delete(s.flights, f.fp)
	}
	if err == nil {
		s.cache.add(f.fp, res)
	}
	f.res, f.err = res, err
	f.finishedAt = time.Now()
	if !stored {
		f.searchedAt = f.finishedAt
	}
	close(f.done)
	s.mu.Unlock()
	if err == nil {
		s.met.optimizedDone()
	}
	f.cancel()
}

// shedCheck is the admission controller: requests carrying a deadline
// (X-Deadline-Ms header or the -default-deadline flag, materialized as
// a context deadline) are rejected up front when the estimated queue
// wait already exceeds the time they have left — a 429 now is cheaper
// for everyone than a timeout after occupying a queue slot. Requests
// without a deadline are never shed; the bounded queue's 503 is their
// backstop.
func (s *Service) shedCheck(ctx context.Context) error {
	dl, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	est := s.estimatedWait()
	if est == 0 || est <= time.Until(dl) {
		return nil
	}
	s.met.shedDrop()
	return &OverloadError{QueueDepth: len(s.queue), EstimatedWait: est}
}

// estimatedWait predicts how long a newly queued request would wait
// before a worker picks it up: queue depth × observed mean optimization
// time, spread over the worker pool. Zero until the service has
// completed at least one optimization (a cold daemon never sheds).
func (s *Service) estimatedWait() time.Duration {
	mean := s.met.meanService()
	if mean <= 0 {
		return 0
	}
	return time.Duration(float64(len(s.queue)) * mean / float64(s.cfg.Workers) * float64(time.Second))
}

// abandon drops one waiter; the last one out cancels the optimization and
// unregisters the flight so a later identical request starts fresh.
func (s *Service) abandon(f *flight) {
	s.mu.Lock()
	f.waiters--
	if f.waiters <= 0 {
		select {
		case <-f.done:
			// Already finished; nothing to cancel.
		default:
			if s.flights[f.fp] == f {
				delete(s.flights, f.fp)
			}
			f.cancel()
		}
	}
	s.mu.Unlock()
}

// compareKey is the canonical payload hashed into a comparison
// fingerprint: the same normalizations as plan fingerprints plus the
// architecture names, in request order (order is part of the result).
type compareKey struct {
	Kind    string                 `json:"kind"`
	Model   topoopt.ModelSpec      `json:"model"`
	Options topoopt.Options        `json:"options"`
	Archs   []topoopt.Architecture `json:"archs"`
}

// CompareFingerprint returns the deterministic cache key of a comparison.
// An empty arch list canonicalizes to the full registry sweep, so the
// implicit and explicit spellings of "compare everything" share one
// entry. Architecture names are part of the key: two requests differing
// only in fabric selection never alias.
func CompareFingerprint(spec topoopt.ModelSpec, o topoopt.Options, archs []topoopt.Architecture) string {
	if len(archs) == 0 {
		archs = topoopt.Architectures()
	}
	return fingerprintOf(compareKey{
		Kind:    "compare",
		Model:   spec.Canonical(),
		Options: o.Canonical(),
		Archs:   archs,
	})
}

// Compare runs topoopt.CompareContext as a flight, exactly like a plan:
// comparisons are deterministic in (ModelSpec, Options, archs) — the
// fingerprint includes each arch name — so a repeated sweep is served
// from the shared LRU (and the WAL across restarts), concurrent
// identical sweeps share one execution that is cancelled when its last
// waiter leaves, and doomed ones are shed at admission. Returns the
// results, the request fingerprint, and whether the results came from
// the cache.
func (s *Service) Compare(ctx context.Context, spec topoopt.ModelSpec, m *topoopt.Model, o topoopt.Options, archs []topoopt.Architecture) ([]topoopt.CompareResult, string, bool, error) {
	return typed[[]topoopt.CompareResult](s.compare(ctx, CompareFingerprint(spec, o, archs), m, o, archs, nil))
}

// compare is the core of Compare, keyed by the already-computed
// fingerprint fp; tr, when non-nil, receives the stage breakdown
// exactly as in plan.
func (s *Service) compare(ctx context.Context, fp string, m *topoopt.Model, o topoopt.Options, archs []topoopt.Architecture, tr *telemetry.Trace) (*result, string, bool, error) {
	res, hit, err := s.execute(ctx, fp, func() (flightRun, error) {
		return s.compareRun(m, o, archs), nil
	}, nil, tr)
	return res, fp, hit, err
}

// compareRun adapts a comparison to the generic flight runner. Its
// per-fabric searches run the same parallel MCMC chains as plans, so
// they draw their workers from the shared chain budget too.
func (s *Service) compareRun(m *topoopt.Model, o topoopt.Options, archs []topoopt.Architecture) flightRun {
	return func(ctx context.Context) (*result, error) {
		granted := s.chains.acquire(o.Parallelism)
		defer s.chains.release(granted)
		o := o
		o.SearchWorkers = granted
		res, err := topoopt.CompareContext(ctx, m, o, archs...)
		if err != nil {
			return nil, err
		}
		return computed(kindCompare, res), nil
	}
}

// Job states.
const (
	JobQueued    = "queued"
	JobRunning   = "running"
	JobDone      = "done"
	JobFailed    = "failed"
	JobCancelled = "cancelled"
)

// Job is the externally visible state of an async job. Every job kind
// (plan, fleet, sweep) shares this one envelope: Kind names the result
// shape and Result carries it once the job is done — *topoopt.Plan for
// "plan" jobs, *topoopt.FleetResult for "fleet", *topoopt.FleetSweepResult
// for "sweep" — so callers dispatch on the tag instead of probing
// per-kind optional fields.
type Job struct {
	ID          string `json:"id"`
	Kind        string `json:"kind"`
	Status      string `json:"status"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Result      any    `json:"result,omitempty"`
	// Partial is the anytime snapshot of a running plan job: the best
	// strategy the search has found so far, improving monotonically across
	// polls. Only set while Status is "running" and Kind is "plan"; the
	// final Result supersedes it.
	Partial    *PartialPlan `json:"partial,omitempty"`
	Error      string       `json:"error,omitempty"`
	CreatedAt  time.Time    `json:"created_at"`
	FinishedAt *time.Time   `json:"finished_at,omitempty"`

	// res is a done job's result in both forms: a poll writes its
	// canonical bytes rather than re-encoding Result.
	res *result
}

type job struct {
	snap   Job
	cancel context.CancelFunc
}

// SubmitJob validates req, registers an async job and starts it. The job
// flows through the same cache/coalescing path as synchronous plans.
func (s *Service) SubmitJob(req PlanRequest) (Job, error) {
	m, err := req.Model.Resolve()
	if err == nil {
		err = req.Options.Validate()
	}
	if err != nil {
		return Job{}, err
	}
	return s.submitJob(m, req)
}

// submitJob is SubmitJob after validation; m is the already-resolved
// model (the HTTP layer resolves it during request decoding). The
// canonical request is journaled so a crash re-enqueues the job on the
// next boot.
func (s *Service) submitJob(m *topoopt.Model, req PlanRequest) (Job, error) {
	journal, _ := json.Marshal(PlanRequest{
		Model:   req.Model.Canonical(),
		Options: req.Options.Canonical(),
	})
	fp := req.Fingerprint()
	return s.submitAsync(fp, s.planRun(m, req, fp), kindPlan, journal)
}

// FleetRequest is the wire request of POST /v1/fleet.
type FleetRequest struct {
	Spec topoopt.FleetSpec `json:"spec"`
}

// FleetFingerprint returns the deterministic cache key of a fleet
// simulation: SHA-256 over the canonical JSON of the spec under a "fleet"
// kind tag, so fleet entries can never alias plan or compare entries in
// the shared LRU. Fleet results are pure functions of the canonical spec
// (Seed, TraceSpec, Policy, Arch, ...), which is what makes caching whole
// cluster runs sound.
func FleetFingerprint(spec topoopt.FleetSpec) string {
	return fingerprintOf(struct {
		Kind string            `json:"kind"`
		Spec topoopt.FleetSpec `json:"spec"`
	}{Kind: "fleet", Spec: spec.Canonical()})
}

// SubmitFleet validates spec and registers an async fleet-simulation job.
// Fleet runs flow through the same flight machinery as plans — one
// fingerprint-keyed cache entry per canonical spec, concurrent identical
// submissions coalesce onto a single run, DELETE /v1/jobs/{id} cancels —
// and their embedded strategy searches draw workers from the service's
// SearchThreads budget, so a fleet run cannot starve interactive plans.
func (s *Service) SubmitFleet(spec topoopt.FleetSpec) (Job, error) {
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	sp := spec.Canonical()
	run := func(ctx context.Context) (*result, error) {
		granted := s.chains.acquire(sp.Parallelism)
		defer s.chains.release(granted)
		sp := sp
		sp.SearchWorkers = granted
		res, err := topoopt.RunFleet(ctx, sp)
		if err != nil {
			return nil, err
		}
		return computed(kindFleet, res), nil
	}
	journal, _ := json.Marshal(sp)
	return s.submitAsync(FleetFingerprint(spec), run, kindFleet, journal)
}

// SweepRequest is the wire request of POST /v1/sweep: a fleet spec plus
// the Monte Carlo replica count. Async selects 202 + job semantics
// instead of a synchronous response.
type SweepRequest struct {
	Spec     topoopt.FleetSpec `json:"spec"`
	Replicas int               `json:"replicas"`
	Async    bool              `json:"async,omitempty"`
}

// sweepJournal is the durable form of an admitted sweep job: everything
// needed to re-submit it after a crash.
type sweepJournal struct {
	Spec     topoopt.FleetSpec `json:"spec"`
	Replicas int               `json:"replicas"`
}

// SweepFingerprint returns the deterministic cache key of a Monte Carlo
// sweep: SHA-256 over the canonical JSON of (spec, replicas) under a
// "sweep" kind tag. The replica count is part of the key — a K=64 sweep
// and a K=8 sweep of the same spec are different distributions.
func SweepFingerprint(spec topoopt.FleetSpec, replicas int) string {
	return fingerprintOf(struct {
		Kind     string            `json:"kind"`
		Spec     topoopt.FleetSpec `json:"spec"`
		Replicas int               `json:"replicas"`
	}{Kind: "sweep", Spec: spec.Canonical(), Replicas: replicas})
}

// sweepRun adapts a Monte Carlo sweep to the generic flight runner. The
// replica fan-out is metered by the shared chain budget: the sweep asks
// for one worker per replica and fans out only as wide as the grant, so
// a 64-replica sweep on a busy daemon degrades toward sequential
// replicas instead of oversubscribing the host. Replica completions feed
// the flight's progress sink, so sweep progress (done/total replicas)
// reaches X-Trace headers and /debug/requests exactly like MCMC proposal
// progress does for plans.
func (s *Service) sweepRun(spec topoopt.FleetSpec, replicas int) flightRun {
	return func(ctx context.Context) (*result, error) {
		want := replicas
		if spec.Parallelism > 0 && spec.Parallelism < want {
			want = spec.Parallelism
		}
		granted := s.chains.acquire(want)
		defer s.chains.release(granted)
		sp := spec
		sp.SearchWorkers = granted
		sink := telemetry.ProgressFromContext(ctx)
		sink.Set(0, int64(replicas))
		res, err := topoopt.RunFleetSweep(ctx, sp, replicas, func(done, total int) {
			sink.Set(int64(done), int64(total))
		})
		if err != nil {
			return nil, err
		}
		return computed(kindSweep, res), nil
	}
}

// Sweep runs a K-replica Monte Carlo sweep synchronously, riding the
// same fingerprint cache, in-flight coalescing and admission control as
// plans: concurrent identical sweeps cost one fan-out, repeated sweeps
// are served from the LRU (and the WAL across restarts), and sweeps that
// cannot meet their deadline are shed up front. Returns the merged
// distributions, the fingerprint, and whether the result was cached.
func (s *Service) Sweep(ctx context.Context, spec topoopt.FleetSpec, replicas int, tr *telemetry.Trace) (*topoopt.FleetSweepResult, string, bool, error) {
	if err := spec.Validate(); err != nil {
		return nil, "", false, err
	}
	if replicas < 1 || replicas > topoopt.MaxFleetSweepReplicas {
		return nil, "", false, fmt.Errorf("serve: sweep replicas must be in [1, %d], got %d",
			topoopt.MaxFleetSweepReplicas, replicas)
	}
	return typed[*topoopt.FleetSweepResult](s.sweep(ctx, spec, replicas, tr))
}

// sweep is Sweep after validation.
func (s *Service) sweep(ctx context.Context, spec topoopt.FleetSpec, replicas int, tr *telemetry.Trace) (*result, string, bool, error) {
	sp := spec.Canonical()
	fp := SweepFingerprint(sp, replicas)
	res, hit, err := s.execute(ctx, fp, func() (flightRun, error) {
		return s.sweepRun(sp, replicas), nil
	}, nil, tr)
	return res, fp, hit, err
}

// SubmitSweep registers an async Monte Carlo sweep job: same flight
// machinery as Sweep, with job semantics (status polling via GET
// /v1/jobs/{id}, cancellation via DELETE, crash-safe journaling).
func (s *Service) SubmitSweep(spec topoopt.FleetSpec, replicas int) (Job, error) {
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	if replicas < 1 || replicas > topoopt.MaxFleetSweepReplicas {
		return Job{}, fmt.Errorf("serve: sweep replicas must be in [1, %d], got %d",
			topoopt.MaxFleetSweepReplicas, replicas)
	}
	sp := spec.Canonical()
	journal, _ := json.Marshal(sweepJournal{Spec: sp, Replicas: replicas})
	return s.submitAsync(SweepFingerprint(sp, replicas), s.sweepRun(sp, replicas), kindSweep, journal)
}

// submitAsync registers an async job around a flight. The
// cache/flight/queue admission runs synchronously so backpressure
// surfaces as an error here (a 503 at the HTTP layer), never as an
// accepted job that asynchronously "fails" with a full queue. Admitted
// non-cached jobs are journaled (kind + canonical request payload) so a
// crash before completion re-enqueues them on the next boot; the
// journal entry is cleared when the job reaches a genuine terminal
// state (done, failed, user-cancelled) — never when shutdown cut it
// short, so drained-but-unfinished jobs survive into the next boot.
func (s *Service) submitAsync(fp string, run flightRun, kind string, journal []byte) (Job, error) {
	jctx, cancel := context.WithCancel(s.baseCtx)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		return Job{}, ErrClosed
	}
	// Reserve the waiter slot under the same lock as the closed check:
	// Close sets closed before waiting on jobWG, so every Add
	// happens-before the Wait and no waiter goroutine can appear (or
	// touch the store) once shutdown has begun. Paths that end up not
	// spawning the waiter release the reservation themselves.
	s.jobWG.Add(1)
	s.jobID++
	id := fmt.Sprintf("j%08d", s.jobID)
	j := &job{
		snap:   Job{ID: id, Kind: kind, Status: JobQueued, Fingerprint: fp, CreatedAt: time.Now().UTC()},
		cancel: cancel,
	}
	s.jobs[id] = j
	s.jobSeq = append(s.jobSeq, id)
	s.evictJobsLocked()
	s.mu.Unlock()

	// The job stays "queued" until a worker actually dequeues its flight;
	// cache hits jump straight to "done".
	onStart := func() {
		s.setJob(id, func(j *Job) { j.Status = JobRunning })
	}
	// A result warmed from the store is decoded here, outside the lock:
	// a job's Result is the typed value.
	finish := func(res *result, err error) {
		var v any
		if err == nil {
			v, err = res.value()
		}
		now := time.Now().UTC()
		s.setJob(id, func(j *Job) {
			j.FinishedAt = &now
			switch {
			case err == nil:
				j.Status, j.Result, j.res = JobDone, v, res
			case errors.Is(err, context.Canceled):
				j.Status, j.Error = JobCancelled, err.Error()
			default:
				j.Status, j.Error = JobFailed, err.Error()
			}
		})
	}

	cached, f, err := s.joinOrCreate(fp, run, onStart)
	if err != nil {
		cancel()
		s.jobWG.Done()
		s.mu.Lock()
		delete(s.jobs, id) // never admitted; jobSeq is cleaned lazily
		s.mu.Unlock()
		return Job{}, err
	}
	// In both branches the journal is cleared before finish publishes the
	// terminal status, so a job reported done never still has a journal
	// entry.
	if cached != nil {
		// A journaled job resolving straight from the cache is terminal
		// too: the boot-time re-submission path lands here when a job's
		// put record survived a crash alongside its journal entry, and
		// without the clear that entry would outlive every compaction and
		// re-submit the job on every subsequent boot.
		s.clearStaleJournal(kind, fp)
		finish(cached, nil)
		cancel()
		s.jobWG.Done()
	} else {
		s.journalJob(kind, fp, journal)
		go func() {
			defer s.jobWG.Done()
			defer cancel()
			res, werr := s.waitFlight(jctx, f)
			// A job killed by shutdown (drain deadline or Close) is not
			// terminal: its journal entry must survive so the next boot
			// re-enqueues it. Success, genuine failure and user cancels
			// clear it.
			if !s.shutdownErr(werr) {
				s.journalJobDone(kind, fp)
			}
			finish(res, werr)
		}()
	}
	snap, _ := s.GetJob(id)
	return snap, nil
}

// shutdownErr reports whether werr is a shutdown-induced job failure
// (drain-deadline cancellation or Close) rather than a terminal outcome
// of the job itself. The job ctx descends from baseCtx, so a shutdown
// cancel can surface either as ErrClosed or as context.Canceled racing
// through the waiter's own ctx branch — check the service state, not
// just the error value.
func (s *Service) shutdownErr(werr error) bool {
	return werr != nil && (errors.Is(werr, ErrClosed) || s.baseCtx.Err() != nil)
}

// GetJob returns a snapshot of the job, if tracked. A running plan job
// carries the search's current best as Partial (when the search has
// streamed at least one improvement), so pollers can act on a good-enough
// plan before the full budget is spent.
func (s *Service) GetJob(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	snap := j.snap
	if snap.Status == JobRunning && snap.Kind == kindPlan {
		if ps, ok := s.partials[snap.Fingerprint]; ok {
			if pp, ok := ps.snapshot(); ok {
				snap.Partial = &pp
			}
		}
	}
	return snap, true
}

// Job-listing bounds: callers page with limit; the hard cap keeps one
// response from serializing a thousand tracked jobs.
const (
	defaultJobListLimit = 100
	maxJobListLimit     = 1000
)

// ListJobs returns tracked jobs newest-first, optionally filtered by
// status (empty matches all), bounded by limit (≤ 0 selects the default
// of 100; the cap is 1000). Result payloads are stripped from listings —
// they can be megabytes for fleet runs — so callers list to discover and
// then GET the job they want. An unknown status is an error.
func (s *Service) ListJobs(status string, limit int) ([]Job, error) {
	switch status {
	case "", JobQueued, JobRunning, JobDone, JobFailed, JobCancelled:
	default:
		return nil, fmt.Errorf("serve: unknown job status %q", status)
	}
	if limit <= 0 {
		limit = defaultJobListLimit
	}
	if limit > maxJobListLimit {
		limit = maxJobListLimit
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, min(limit, len(s.jobSeq)))
	for i := len(s.jobSeq) - 1; i >= 0 && len(out) < limit; i-- {
		j, ok := s.jobs[s.jobSeq[i]]
		if !ok || (status != "" && j.snap.Status != status) {
			continue
		}
		snap := j.snap
		snap.Result = nil
		out = append(out, snap)
	}
	return out, nil
}

// CancelJob cancels a queued or running job. Finished jobs are left
// untouched.
func (s *Service) CancelJob(id string) (Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Job{}, false
	}
	cancel := j.cancel
	snap := j.snap
	s.mu.Unlock()
	if snap.Status == JobQueued || snap.Status == JobRunning {
		cancel()
	}
	return snap, true
}

func (s *Service) setJob(id string, mut func(*Job)) {
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		// Never regress a finished job (a slow "running" update racing a
		// fast completion).
		if j.snap.FinishedAt == nil {
			mut(&j.snap)
		}
	}
	s.mu.Unlock()
}

// evictJobsLocked drops the oldest finished jobs past cfg.MaxJobs.
func (s *Service) evictJobsLocked() {
	for len(s.jobs) > s.cfg.MaxJobs {
		evicted := false
		for i, id := range s.jobSeq {
			j, ok := s.jobs[id]
			if !ok {
				s.jobSeq = append(s.jobSeq[:i], s.jobSeq[i+1:]...)
				evicted = true
				break
			}
			if j.snap.FinishedAt != nil {
				delete(s.jobs, id)
				s.jobSeq = append(s.jobSeq[:i], s.jobSeq[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return // everything still running; let it finish
		}
	}
}

// Metrics returns a point-in-time snapshot of the service counters and
// gauges.
func (s *Service) Metrics() MetricsSnapshot {
	snap := s.met.snapshot()
	snap.Stages = s.tel.StageSummaries()
	s.mu.Lock()
	snap.CacheEntries = s.cache.len()
	snap.SimIndexEntries = s.sim.len()
	snap.InFlight = len(s.flights)
	snap.JobsTracked = len(s.jobs)
	snap.WarmedEntries = s.warmed
	snap.Draining = s.draining
	s.mu.Unlock()
	snap.QueueDepth = len(s.queue)
	snap.QueueCapacity = cap(s.queue)
	return snap
}
