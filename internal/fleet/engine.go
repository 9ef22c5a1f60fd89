package fleet

import (
	"context"
	"fmt"
	"math/rand"

	"topoopt/internal/cluster"
	"topoopt/internal/parallel"
)

// The engine is a deterministic discrete-event simulator. Three rules
// keep it byte-reproducible from the spec alone:
//
//  1. Events order by (time, push sequence): simultaneous events resolve
//     by the order they were scheduled, never by heap internals.
//  2. Every random stream (trace, failure schedule, victim selection)
//     derives from Spec.Seed via fixed stream IDs.
//  3. No state lives in a map that is ever iterated — running jobs sit in
//     an id-indexed slice, the evaluation cache is read by key only.
//
// The engine is also allocation-free on its steady path: every structure
// a run touches per event — the event heap, the queue, the running set,
// shard server slices, the utilization series, the policy context and its
// closures — is owned by the Engine and recycled across Reset, so a
// warmed Engine replays an entire cluster lifetime with zero heap
// allocations (the netsim PR-1 discipline applied to the fleet layer).
// Fresh allocations happen only in NewEngine and inside genuine strategy
// searches (evaluation-cache misses).

type evKind int

const (
	evArrival evKind = iota
	evFinish
	evFailure
)

type event struct {
	t    float64
	seq  int64
	kind evKind
	job  int // arrival index (evArrival, evFinish)
	gen  int // finish-generation guard: stale finishes are ignored
}

// before is the heap order: (time, push sequence). seq is unique, so the
// order is total and any correct heap pops the same sequence.
func (e event) before(o event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// queuedEntry is one waiting job (fresh arrival or restart).
type queuedEntry struct {
	arr      arrival
	restarts int
	replans  int
}

// runningJob is one placed job. Progress is tracked as (itersDone at
// rateSince, current iterS), so replans can re-rate the remaining work.
// Stored by value in the Engine's id-indexed running slice; live marks
// occupancy.
type runningJob struct {
	live      bool
	arr       arrival
	servers   []int
	start     float64 // training start (allocation + activation)
	iterS     float64 // current (possibly degraded) iteration time
	baseIterS float64 // undegraded iteration time — the slowdown baseline
	degree    int
	strategy  *parallel.Strategy
	itersDone int
	rateSince float64
	finish    float64
	gen       int
	restarts  int
	replans   int
}

// release is one running job's (finish time, worker count) pair, the unit
// the shadow-time scan sorts.
type release struct {
	t float64
	w int
}

// Engine runs fleet simulations of one canonical Spec repeatedly without
// reallocating its working state. NewEngine pays for construction once
// (trace materialization, policy and evaluator setup, slice pools);
// Reset rewinds every piece of per-run state and re-seeds the random
// streams, so Run replays the identical lifetime — byte-for-byte,
// including the Searches/WarmStarts accounting — with zero allocations
// once the pools are warm. The evaluation cache deliberately survives
// Reset: evaluations are pure functions of (family, shard size, degree)
// under the spec, so reuse changes no result, only the cost.
//
// The *Result returned by Run aliases the Engine's internal slices and is
// valid only until the next Reset or Run. Callers that retain results
// across runs (or share them between goroutines) must deep-copy, or use
// the package-level Run, which builds a single-use Engine.
type Engine struct {
	spec  Spec
	ev    *evaluator
	pol   Policy
	mode  provMode
	sched *cluster.Scheduler
	arrs  []arrival

	// ctx is the current run's context, threaded into evaluations via the
	// policy-context closures (set by Run, cleared on return).
	ctx context.Context
	pc  PolicyContext

	events []event // binary heap ordered by event.before
	seq    int64
	queue  []queuedEntry
	// running is indexed by job id (live=false → not running): victim
	// scans walk it in id order, so failure targeting is deterministic.
	running []runningJob
	// gens is the per-job finish-event generation, indexed by id and
	// monotonic across the job's whole lifetime (every placement and
	// replan bumps it). A restarted job's re-placement must NOT reuse an
	// old generation: the aborted attempt's finish event is still in the
	// heap, and a matching generation would complete the job at the stale
	// time with most of its service skipped.
	gens []int

	// panelFreeAt serializes topology activation: one robot (patch
	// panels) or one controller (OCS) wires one job at a time.
	panelFreeAt      float64
	lookaheadReadyAt float64

	// victimSrc/failSrc are the re-seedable sources behind the failure
	// streams; the wrapping Rands are built once and re-seeded per Reset.
	victimSrc rand.Source
	victimRng *rand.Rand
	failSrc   rand.Source
	failRng   *rand.Rand
	failures  int

	util    []UtilPoint
	results []JobResult
	done    int

	evalErr error

	// Reusable scratch: the policy queue view, the shadow-scan release
	// list, victim candidates, the summarize JCT buffer, and the shard
	// server-slice free list (each slice preallocated at maxWorkers, so a
	// shard of any job fits without growth).
	qview      []QueuedJob
	rels       []release
	victims    []int
	jcts       []float64
	slicePool  [][]int
	maxWorkers int

	res Result
}

// Topology-activation latencies (Appendix C): minutes for the robotic
// patch panel (120 s here), ~10 ms for the look-ahead design's mechanical
// 1×2 switch flip and for an OCS circuit switch.
const (
	patchLatencyS = 120
	flipLatencyS  = 0.010
	ocsSwitchS    = 0.010
)

// maxFailureEvents bounds the pre-generated failure schedule — a backstop
// against a runaway rate × horizon product, far above any real scenario.
const maxFailureEvents = 100000

// provMode is Spec.Provisioning resolved once, in NewEngine.
type provMode int

const (
	// provPatch rewires the patch panel at every admission.
	provPatch provMode = iota
	// provLookahead pre-provisions the next admission's topology on the
	// second plane and flips the 1×2 switches to activate it.
	provLookahead
	// provOCS switches circuits at every admission.
	provOCS
)

func provisioningMode(name string) provMode {
	switch name {
	case ProvPatch:
		return provPatch
	case ProvLookahead:
		return provLookahead
	default:
		return provOCS
	}
}

// Run executes the fleet simulation described by spec on a single-use
// Engine. The result is a pure function of the canonicalized spec: two
// calls with the same spec return byte-identical JSON. ctx is polled
// between events and threaded into every strategy search, so a cancelled
// context aborts the run promptly without leaving a simulator mid-flight.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	en, err := NewEngine(spec)
	if err != nil {
		return nil, err
	}
	return en.Run(ctx)
}

// NewEngine validates spec and builds a reusable engine for it: the trace
// is materialized, the policy and evaluator are resolved, and the pooled
// per-run state is sized. The engine is ready to Run immediately.
func NewEngine(spec Spec) (*Engine, error) {
	spec = spec.Canonical()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	ev, err := newEvaluator(spec)
	if err != nil {
		return nil, err
	}
	pol, err := ParsePolicy(spec.Policy, spec.RackSize)
	if err != nil {
		return nil, err
	}
	arrs := buildArrivals(spec)
	maxW := 0
	for _, a := range arrs {
		if a.workers > maxW {
			maxW = a.workers
		}
	}
	en := &Engine{
		spec:       spec,
		ev:         ev,
		pol:        pol,
		mode:       provisioningMode(spec.Provisioning),
		sched:      cluster.NewScheduler(spec.Servers),
		arrs:       arrs,
		running:    make([]runningJob, len(arrs)),
		gens:       make([]int, len(arrs)),
		results:    make([]JobResult, len(arrs)),
		victimSrc:  rand.NewSource(subSeed(spec.Seed, 3)),
		failSrc:    rand.NewSource(subSeed(spec.Seed, 2)),
		maxWorkers: maxW,
	}
	en.victimRng = rand.New(en.victimSrc)
	en.failRng = rand.New(en.failSrc)
	// The policy context's closures are built exactly once; per-pass state
	// (Now, Queue) is updated in place by schedule().
	en.pc = PolicyContext{
		Free: en.sched.Free,
		Alloc: func(k int) ([]int, bool) {
			buf := en.grabSlice()
			s, err := en.sched.AllocateInto(buf, k)
			if err != nil {
				en.slicePool = append(en.slicePool, buf)
				return nil, false
			}
			return s, true
		},
		AllocStrided: func(k, stride int) ([]int, bool) {
			buf := en.grabSlice()
			s, err := en.sched.AllocateStridedInto(buf, k, stride)
			if err != nil {
				en.slicePool = append(en.slicePool, buf)
				return nil, false
			}
			return s, true
		},
		Est:    func(i int) float64 { return en.estimate(en.ctx, i) },
		Shadow: en.shadow,
		Start:  func() float64 { return en.startPreview(en.pc.Now) },
	}
	return en, nil
}

// grabSlice pops a pooled shard slice (or mints one at maxWorkers
// capacity, so any shard of this trace fits without growth).
func (en *Engine) grabSlice() []int {
	if n := len(en.slicePool); n > 0 {
		s := en.slicePool[n-1]
		en.slicePool = en.slicePool[:n-1]
		return s
	}
	return make([]int, 0, en.maxWorkers)
}

// Reset rewinds the engine to the start of the lifetime: events, queue,
// running set, results and utilization are cleared in place, completed
// jobs' shard slices return to the pool, the failure and victim streams
// are re-seeded, and the evaluator's per-run accounting restarts. The
// evaluation cache is kept — it is pure, and reusing it is the whole
// point of the pooled engine.
func (en *Engine) Reset() {
	en.seq = 0
	en.events = en.events[:0]
	en.queue = en.queue[:0]
	// Harvest shard slices back into the pool: finished jobs parked theirs
	// in the results, and a run aborted mid-flight (cancellation, eval
	// error) left some on still-running jobs.
	for i := range en.running {
		if s := en.running[i].servers; s != nil {
			en.slicePool = append(en.slicePool, s[:0])
		}
	}
	clear(en.running)
	clear(en.gens)
	for i := range en.results {
		if s := en.results[i].Servers; s != nil {
			en.slicePool = append(en.slicePool, s[:0])
		}
	}
	clear(en.results)
	en.sched.Reset()
	en.panelFreeAt = 0
	en.lookaheadReadyAt = 0
	en.failures = 0
	en.done = 0
	en.evalErr = nil
	en.util = append(en.util[:0], UtilPoint{TS: 0, Busy: 0})
	en.victimSrc.Seed(subSeed(en.spec.Seed, 3))
	en.ev.beginRun()
	for i, a := range en.arrs {
		en.push(event{t: a.at, kind: evArrival, job: i})
	}
	en.scheduleFailures()
}

// Run resets the engine and replays the lifetime. The returned Result
// aliases engine-owned slices: valid until the next Reset or Run.
func (en *Engine) Run(ctx context.Context) (*Result, error) {
	en.Reset()
	en.ctx = ctx
	defer func() { en.ctx = nil }()

	for len(en.events) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e := en.pop()
		switch e.kind {
		case evArrival:
			en.queue = append(en.queue, queuedEntry{arr: en.arrs[e.job]})
		case evFinish:
			rj := &en.running[e.job]
			if !rj.live || rj.gen != e.gen {
				continue // superseded by a replan or restart
			}
			en.complete(e.t, e.job)
		case evFailure:
			en.failure(ctx, e.t)
		}
		if en.evalErr != nil {
			return nil, en.evalErr
		}
		en.schedule(e.t)
		if en.evalErr != nil {
			return nil, en.evalErr
		}
	}
	if en.done != len(en.arrs) {
		return nil, fmt.Errorf("fleet: %d/%d jobs completed (scheduler stalled)", en.done, len(en.arrs))
	}

	en.res = Result{
		Arch:         en.spec.Arch,
		Policy:       en.pol.Name(),
		Provisioning: en.spec.Provisioning,
		Seed:         en.spec.Seed,
		Jobs:         en.results,
		Utilization:  en.util,
	}
	en.res.Summary.Failures = en.failures
	en.res.Summary.Searches = en.ev.searches
	en.res.Summary.WarmStarts = en.ev.warmStarts
	en.res.Summary.WarmHits = en.ev.warmHits
	en.res.Summary.WarmMisses = en.ev.warmMisses
	en.jcts = summarize(&en.res, en.spec.Servers, en.jcts)
	return &en.res, nil
}

// push appends an event and sifts it up the heap.
func (en *Engine) push(e event) {
	e.seq = en.seq
	en.seq++
	en.events = append(en.events, e)
	i := len(en.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !en.events[i].before(en.events[parent]) {
			break
		}
		en.events[i], en.events[parent] = en.events[parent], en.events[i]
		i = parent
	}
}

// pop removes and returns the earliest event, sifting the tail down.
func (en *Engine) pop() event {
	h := en.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	en.events = h[:n]
	h = en.events
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h[l].before(h[min]) {
			min = l
		}
		if r < n && h[r].before(h[min]) {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// scheduleFailures pre-generates the Poisson fault schedule on its own
// seed stream, bounded by the horizon (default: last arrival, so a
// restart storm cannot stretch the run forever).
func (en *Engine) scheduleFailures() {
	f := en.spec.Failures
	if f == nil || f.RatePerHour <= 0 {
		return
	}
	horizon := f.HorizonS
	if horizon <= 0 {
		horizon = lastArrival(en.arrs)
	}
	en.failSrc.Seed(subSeed(en.spec.Seed, 2))
	t := 0.0
	for i := 0; i < maxFailureEvents; i++ {
		t += en.failRng.ExpFloat64() * 3600 / f.RatePerHour
		if t > horizon {
			return
		}
		en.push(event{t: t, kind: evFailure})
	}
}

// schedule runs placement passes until the policy declines. The policy
// context is engine-owned — its Est/Shadow/Start/Alloc closures were
// built once in NewEngine over live engine state — so a pass costs no
// allocation beyond what the policy itself admits.
func (en *Engine) schedule(now float64) {
	for {
		en.pc.Now = now
		en.pc.Queue = en.queueView()
		qi, servers, ok := en.pol.Pick(&en.pc)
		if en.evalErr != nil || !ok {
			return
		}
		en.place(en.ctx, now, qi, servers)
		if en.evalErr != nil {
			return
		}
	}
}

func (en *Engine) queueView() []QueuedJob {
	en.qview = en.qview[:0]
	for i := range en.queue {
		q := &en.queue[i]
		en.qview = append(en.qview, QueuedJob{ID: q.arr.id, Workers: q.arr.workers})
	}
	return en.qview
}

// estimate is the policy-facing service-time estimate of queue entry i.
// Training jobs evaluate (and cache) their undegraded iteration time —
// the same evaluation a later placement reuses, so backfill estimates are
// exact, not heuristic.
func (en *Engine) estimate(ctx context.Context, i int) float64 {
	q := &en.queue[i]
	if q.arr.fixed > 0 {
		return q.arr.fixed
	}
	out, err := en.ev.evaluate(ctx, q.arr.family, q.arr.workers, en.spec.Degree)
	if err != nil {
		en.evalErr = err
		return inf
	}
	return float64(q.arr.iters) * out.iterS
}

const inf = 1e30

// shadow computes the earliest time `need` servers could be free given
// the running jobs' known finish times, and the extra free servers beyond
// the need at that moment — the reservation EASY backfill protects.
func (en *Engine) shadow(need int) (float64, int) {
	free := en.sched.Free()
	if free >= need {
		return 0, free - need
	}
	en.rels = en.rels[:0]
	for i := range en.running {
		if rj := &en.running[i]; rj.live {
			en.rels = append(en.rels, release{t: rj.finish, w: rj.arr.workers})
		}
	}
	// Slice order is id order (deterministic); a stable insertion sort by
	// finish time keeps equal-finish releases in id order without the
	// sort.SliceStable closure allocation.
	rels := en.rels
	for i := 1; i < len(rels); i++ {
		for j := i; j > 0 && rels[j].t < rels[j-1].t; j-- {
			rels[j], rels[j-1] = rels[j-1], rels[j]
		}
	}
	for _, r := range rels {
		free += r.w
		if free >= need {
			return r.t, free - need
		}
	}
	return inf, 0 // unreachable: need ≤ Servers is validated
}

// startPreview returns the training-start time the next admission at
// `now` would observe: wiring begins once the serial provisioning
// resource frees up, then pays the mode's activation latency (with the
// look-ahead plane state as of now). Pure — the policy layer uses it to
// predict backfill completions; place() commits it and updates the
// plane state.
func (en *Engine) startPreview(now float64) float64 {
	begin := now
	if en.panelFreeAt > begin {
		begin = en.panelFreeAt
	}
	var act float64
	switch en.mode {
	case provPatch:
		act = patchLatencyS
	case provLookahead:
		act = flipLatencyS
		if en.lookaheadReadyAt > begin {
			act = (en.lookaheadReadyAt - begin) + flipLatencyS
		}
	default:
		act = ocsSwitchS
	}
	return begin + act
}

// replanLatency is the reconfiguration pause a degraded replan pays: OCS
// deployments re-switch circuits, patch-panel deployments re-wire the
// active plane (the look-ahead plane is committed to the next admission).
func (en *Engine) replanLatency() float64 {
	if en.mode == provOCS {
		return ocsSwitchS
	}
	return patchLatencyS
}

// place admits queue entry qi on the given (already reserved) servers:
// serialize through the provisioning resource, evaluate the shard, and
// schedule the finish.
func (en *Engine) place(ctx context.Context, now float64, qi int, servers []int) {
	q := en.queue[qi]
	en.queue = append(en.queue[:qi], en.queue[qi+1:]...)
	en.utilSample(now)

	start := en.startPreview(now)
	if en.mode == provLookahead {
		// Commit: start wiring the plane for the next admission; it is
		// ready a patch latency after this job's activation completes.
		en.lookaheadReadyAt = start + patchLatencyS
	}
	en.panelFreeAt = start

	service := q.arr.fixed
	var iterS, baseIterS float64
	var strat *parallel.Strategy
	if q.arr.iters > 0 {
		out, err := en.ev.evaluate(ctx, q.arr.family, q.arr.workers, en.spec.Degree)
		if err != nil {
			en.evalErr = err
			return
		}
		iterS, baseIterS, strat = out.iterS, out.iterS, out.strategy
		service = float64(q.arr.iters) * iterS
	}
	en.gens[q.arr.id]++
	en.running[q.arr.id] = runningJob{
		live: true,
		arr:  q.arr, servers: servers, start: start,
		iterS: iterS, baseIterS: baseIterS, degree: en.spec.Degree,
		strategy: strat, rateSince: start, finish: start + service,
		restarts: q.restarts, replans: q.replans,
		gen: en.gens[q.arr.id],
	}
	en.push(event{t: start + service, kind: evFinish, job: q.arr.id, gen: en.gens[q.arr.id]})
}

// complete records a finished job and frees its shard. The shard slice
// moves into the JobResult (results own their slices until the next
// Reset harvests them back into the pool).
func (en *Engine) complete(t float64, id int) {
	rj := &en.running[id]
	en.sched.Release(rj.servers)
	jr := JobResult{
		ID: id, Workers: rj.arr.workers,
		ArrivalS: rj.arr.at, StartS: rj.start, FinishS: t,
		QueueDelayS: rj.start - rj.arr.at, JCTS: t - rj.arr.at,
		Iters: rj.arr.iters, IterS: rj.iterS,
		Servers: rj.servers, Restarts: rj.restarts, Replans: rj.replans,
	}
	if rj.arr.iters > 0 {
		jr.Family = rj.arr.family.String()
		jr.Slowdown = jr.JCTS / (float64(rj.arr.iters) * rj.baseIterS)
	} else {
		jr.Slowdown = jr.JCTS / rj.arr.fixed
	}
	*rj = runningJob{}
	en.results[id] = jr
	en.done++
	en.utilSample(t)
}

// failure handles one fault at time t: pick a training victim
// deterministically, then replan on the degraded shard or restart.
func (en *Engine) failure(ctx context.Context, t float64) {
	en.failures++
	en.victims = en.victims[:0]
	for id := range en.running {
		if rj := &en.running[id]; rj.live && rj.arr.iters > 0 && rj.start <= t {
			en.victims = append(en.victims, id)
		}
	}
	if len(en.victims) == 0 {
		return // fault hit idle capacity
	}
	id := en.victims[en.victimRng.Intn(len(en.victims))]
	rj := &en.running[id]

	if en.spec.Failures.Mode == FailReplan {
		out, err := en.ev.degrade(ctx, rj.arr.family, rj.arr.workers, rj.degree)
		if err == nil {
			en.replan(t, rj, out)
			return
		}
		if ctx.Err() != nil {
			en.evalErr = ctx.Err()
			return
		}
		// errShardTooDegraded, or a degraded fabric that cannot be built
		// or evaluated (e.g. a 1-interface expander would disconnect):
		// fall through to a restart, the physical recovery path.
	}
	en.restart(t, id)
}

// replan re-rates a job's remaining work on its degraded shard: progress
// up to t is kept, the replan latency is paid, and the remaining
// iterations run at the degraded rate.
func (en *Engine) replan(t float64, rj *runningJob, out evalOut) {
	completed := rj.itersDone
	if t > rj.rateSince && rj.iterS > 0 {
		completed += int((t - rj.rateSince) / rj.iterS)
	}
	if completed > rj.arr.iters {
		completed = rj.arr.iters
	}
	resume := t + en.replanLatency()
	rj.degree--
	rj.iterS = out.iterS
	rj.strategy = out.strategy
	rj.itersDone = completed
	rj.rateSince = resume
	rj.replans++
	en.gens[rj.arr.id]++
	rj.gen = en.gens[rj.arr.id]
	rj.finish = resume + float64(rj.arr.iters-completed)*out.iterS
	en.push(event{t: rj.finish, kind: evFinish, job: rj.arr.id, gen: rj.gen})
}

// restart aborts a job: progress is lost, the shard is released back to
// the pool (its fabric is re-provisioned from scratch on the next
// admission, so the degree resets), and the job re-queues at the tail.
func (en *Engine) restart(t float64, id int) {
	rj := &en.running[id]
	en.sched.Release(rj.servers)
	en.slicePool = append(en.slicePool, rj.servers[:0])
	entry := queuedEntry{arr: rj.arr, restarts: rj.restarts + 1, replans: rj.replans}
	*rj = runningJob{}
	en.utilSample(t)
	en.queue = append(en.queue, entry)
}

// utilSample records the busy-server count at time t (coalescing samples
// at the same instant).
func (en *Engine) utilSample(t float64) {
	busy := en.spec.Servers - en.sched.Free()
	if n := len(en.util); n > 0 && en.util[n-1].TS == t {
		en.util[n-1].Busy = busy
		return
	}
	en.util = append(en.util, UtilPoint{TS: t, Busy: busy})
}
