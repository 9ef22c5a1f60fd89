package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"topoopt"
	"topoopt/internal/arch"
	"topoopt/internal/core"
	"topoopt/internal/flexnet"
	"topoopt/internal/model"
	"topoopt/internal/parallel"
	"topoopt/internal/route"
	"topoopt/internal/serve"
	"topoopt/internal/telemetry"
	"topoopt/internal/traffic"
	"topoopt/internal/wal"
)

// evalAllocEvery samples the allocations of one DeltaEval.Eval call in
// this many: reading the allocation counter stops the world, so reading
// it around every call would swamp the search.
const evalAllocEvery = 16

// replayer re-executes a workload in-process: an in-process planning
// service booted from the boot store, whose planner is the step-by-step
// pipeline below, and the comparison broken into its fabric layers.
type replayer struct {
	t    *tracer
	e    *env
	tel  *telemetry.Registry
	svc  *serve.Service
	log  *wal.Store // scratch log the replay appends each computed result to
	dirs []string   // this cycle's store and log copies
	errs faults
}

// boot replays daemon start-up: open the store, then warm the service
// from it.
func (r *replayer) boot(pristine string, cycle int) error {
	dir := filepath.Join(r.e.work, fmt.Sprintf("replay-%d", cycle))
	logDir := filepath.Join(r.e.work, fmt.Sprintf("replay-log-%d", cycle))
	r.dirs = []string{dir, logDir}
	if err := copyDir(pristine, dir); err != nil {
		return err
	}
	root := r.t.root("boot")
	var st *serve.Store
	var err error
	r.t.do("wal.open", root, func() { st, err = serve.OpenStore(dir) })
	if err != nil {
		return err
	}
	r.t.do("serve.warm", root, func() {
		r.svc = serve.New(serve.Config{Store: st, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
			return r.plan(r.t.current(), m, o)
		}})
	})
	r.t.end(root)
	var m serve.MetricsSnapshot
	rec := httptest.NewRecorder()
	r.svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		return err
	}
	r.t.add("boots", 1)
	r.t.add("serve.warm_decoded", float64(m.WarmedEntries))
	r.t.add("serve.warm_kept", float64(m.CacheEntries))
	r.log, err = wal.Open(logDir)
	return err
}

// close stops the in-process service and removes the cycle's store and
// log copies.
func (r *replayer) close() {
	if r.svc != nil {
		r.svc.Close()
	}
	if r.log != nil {
		r.log.Close()
	}
	for _, dir := range r.dirs {
		os.RemoveAll(dir)
	}
	r.svc, r.log, r.dirs = nil, nil, nil
}

// plan is topoopt.Optimize step by step (flexnet.CoOptimizeContext's
// alternating optimization), with a span around every call into a layer.
// o carries the warm start and patience the service chose.
func (r *replayer) plan(parent int, m *model.Model, o topoopt.Options) (*topoopt.Plan, error) {
	t := r.t
	o = o.Canonical()
	batch := o.BatchPerGPU
	if batch <= 0 {
		batch = m.BatchPerGPU
	}
	tfCfg := core.Config{N: o.Servers, D: o.Degree, LinkBW: o.LinkBandwidth, PrimeOnly: o.PrimeOnly}
	var (
		dem  traffic.Demand
		tf   *core.Result
		cost float64
		err  error
	)
	var st parallel.Strategy
	t.do("parallel.hybrid", parent, func() { st = parallel.Hybrid(m, o.Servers) })
	t.do("traffic.build", parent, func() { dem, err = traffic.FromStrategy(m, st, batch) })
	if err != nil {
		return nil, err
	}
	t.do("core.topofinder", parent, func() { tf, err = core.TopologyFinder(tfCfg, dem) })
	if err != nil {
		return nil, err
	}
	fab := flexnet.NewTopoOptFabric(tf)
	t.do("flexnet.estimate", parent, func() { cost = flexnet.EstimateIteration(fab, dem, st.MaxComputeTime(m, o.GPU, batch)) })
	best := &flexnet.CoOptResult{Strategy: st, Topo: tf, Fabric: fab, Demand: dem}
	bestCost := cost
	for round := 0; round < o.Rounds; round++ {
		var onWarm func(bool)
		if round == 0 {
			onWarm = o.OnWarmStart
		}
		st = r.search(parent, m, o.Servers, best.Fabric, batch, o.GPU, flexnet.MCMCConfig{
			Iters: o.MCMCIters, Seed: o.Seed + int64(round), Parallelism: o.Parallelism,
			Workers: o.SearchWorkers, Warm: o.WarmStart, Patience: o.Patience,
			OnWarmStart: onWarm, OnBest: o.OnBest,
		})
		t.do("traffic.build", parent, func() { dem, err = traffic.FromStrategy(m, st, batch) })
		if err != nil {
			return nil, err
		}
		t.do("core.topofinder", parent, func() { tf, err = core.TopologyFinder(tfCfg, dem) })
		if err != nil {
			return nil, err
		}
		fab := flexnet.NewTopoOptFabric(tf)
		t.do("flexnet.estimate", parent, func() { cost = flexnet.EstimateIteration(fab, dem, st.MaxComputeTime(m, o.GPU, batch)) })
		if cost >= bestCost {
			break
		}
		bestCost = cost
		best.Strategy, best.Topo, best.Fabric, best.Demand = st, tf, fab, dem
	}
	it, err := r.simulate(parent, best.Fabric, best.Demand, best.Strategy.MaxComputeTime(m, o.GPU, batch))
	if err != nil {
		return nil, err
	}
	best.IterTime = it
	var p *topoopt.Plan
	t.do("topoopt.plan", parent, func() { p = planOf(best, o.Servers) })
	return p, nil
}

// search is flexnet.MCMCSearch over a DeltaEval, counting proposals,
// evaluations and improvements.
func (r *replayer) search(parent int, m *model.Model, n int, fab *flexnet.Fabric, batch int, gpu model.GPU, mc flexnet.MCMCConfig) parallel.Strategy {
	t := r.t
	var de *flexnet.DeltaEval
	t.do("flexnet.delta_init", parent, func() { de = flexnet.NewDeltaEval(m, fab, batch, gpu) })
	sp := t.begin("flexnet.mcmc", parent)
	var mu sync.Mutex
	evals, proposals, bests := 0, 0, 0
	eval := func(s parallel.Strategy) float64 {
		mu.Lock()
		sample := evals%evalAllocEvery == 0
		evals++
		mu.Unlock()
		var a0 uint64
		if sample {
			a0 = mallocs()
		}
		i := t.begin("flexnet.eval", sp)
		v := de.Eval(s)
		t.end(i)
		if sample {
			t.sample("flexnet.eval_allocs", float64(mallocs()-a0))
		}
		return v
	}
	mc.Progress = func(done, _ int) { proposals = done }
	if onWarm := mc.OnWarmStart; onWarm != nil {
		mc.OnWarmStart = func(adopted bool) {
			t.add("flexnet.warm_starts", 1)
			if adopted {
				t.add("flexnet.warm_adopted", 1)
			}
			onWarm(adopted)
		}
	}
	onBest := mc.OnBest
	mc.OnBest = func(s parallel.Strategy, c float64) {
		bests++
		if onBest != nil {
			onBest(s, c)
		}
	}
	st, _ := flexnet.MCMCSearch(m, n, batch, eval, mc)
	t.end(sp)
	t.add("flexnet.searches", 1)
	t.add("flexnet.evals", float64(evals))
	t.add("flexnet.proposals", float64(proposals))
	// The first OnBest call reports the starting point, not an improvement.
	t.add("flexnet.improvements", float64(bests-1))
	if bests > 1 {
		t.add("flexnet.improved_searches", 1)
	}
	return st
}

// simulate is flexnet.SimulateIteration, counting the flows it injects
// (one per nonzero entry of the MP and AllReduce matrices).
func (r *replayer) simulate(parent int, fab *flexnet.Fabric, dem traffic.Demand, compute float64) (flexnet.IterationResult, error) {
	flows := 0
	r.t.do("netsim.count", parent, func() {
		for _, tm := range []traffic.Matrix{fab.MPMatrix(dem), fab.AllReduceMatrix(dem)} {
			for s, row := range tm {
				for d, b := range row {
					if b > 0 && s != d {
						flows++
					}
				}
			}
		}
	})
	var it flexnet.IterationResult
	var err error
	r.t.do("flexnet.simulate", parent, func() { it, err = flexnet.SimulateIteration(fab, dem, compute) })
	r.t.add("netsim.flows", float64(flows))
	r.t.add("flexnet.simulations", 1)
	return it, err
}

// planOf converts a co-optimization result to the public Plan exactly as
// topoopt.Optimize does.
func planOf(res *flexnet.CoOptResult, n int) *topoopt.Plan {
	p := &topoopt.Plan{
		Strategy:        res.Strategy,
		DegreeAllReduce: res.Topo.DegreeAllReduce,
		DegreeMP:        res.Topo.DegreeMP,
		Demand:          res.Demand,
		PredictedIteration: topoopt.IterationBreakdown{
			MPSeconds: res.IterTime.MPTime, ComputeSeconds: res.IterTime.ComputeTime,
			AllReduceSeconds: res.IterTime.AllReduceTime, BandwidthTax: res.IterTime.BandwidthTax,
		},
	}
	for _, e := range res.Topo.Network.G.Edges() {
		p.Circuits = append(p.Circuits, topoopt.Circuit{From: e.From, To: e.To})
	}
	for _, gr := range res.Topo.Rings {
		p.Rings = append(p.Rings, topoopt.RingSpec{
			Members: append([]int(nil), gr.Members...),
			Ps:      append([]int(nil), gr.Ps...),
		})
	}
	p.Routes = make(map[int]map[int][]int)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if nodes := res.Topo.Routes.Get(s, d); s != d && nodes != nil {
				if p.Routes[s] == nil {
					p.Routes[s] = make(map[int][]int)
				}
				p.Routes[s][d] = append([]int(nil), nodes...)
			}
		}
	}
	return p
}

// appendLog times the write-ahead-log append of a computed result (a plan
// or a comparison), as the daemon persists each one it computes.
func (r *replayer) appendLog(parent int, kind, fp string, v any) {
	var b []byte
	var err error
	r.t.do("wal.encode", parent, func() { b, err = json.Marshal(v) })
	if err != nil {
		r.errs.add("encoding a result for the log: %v", err)
		return
	}
	r.t.do("wal.append", parent, func() {
		err = r.log.Append(wal.Record{Op: wal.OpPut, Kind: kind, Fp: fp, Payload: b})
	})
	if err != nil {
		r.errs.add("log append: %v", err)
	}
}

// telemetryTrace is the stage bookkeeping the daemon's handler does for
// every request: begin, the stage marks, the X-Trace header and finish.
func (r *replayer) telemetryTrace(parent int, endpoint, fp string, cached bool) {
	r.t.do("telemetry.trace", parent, func() {
		tr := r.tel.Begin(endpoint)
		for _, s := range []telemetry.Stage{telemetry.StageDecode, telemetry.StageCache, telemetry.StageEncode} {
			tr.Start(s)
		}
		tr.End()
		tr.AppendHeader(nil)
		tr.Finish(fp, cached, http.StatusOK)
	})
}

// decodePlan is the handler's strict decode, model resolution and
// validation of a /v1/plan body.
func decodePlan(body []byte) (serve.PlanRequest, *topoopt.Model, error) {
	var pr serve.PlanRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&pr); err != nil {
		return pr, nil, err
	}
	m, err := pr.Model.Resolve()
	if err == nil {
		err = pr.Options.Validate()
	}
	return pr, m, err
}

// servePlan replays one /v1/plan request and returns its response.
func (r *replayer) servePlan(class string, body []byte) ([]byte, error) {
	root := r.t.root(class)
	var (
		pr     serve.PlanRequest
		err    error
		fp     string
		plan   *topoopt.Plan
		cached bool
		out    []byte
	)
	r.t.do("serve.decode", root, func() { pr, _, err = decodePlan(body) })
	if err != nil {
		return nil, err
	}
	r.t.do("serve.fingerprint", root, func() { fp = pr.Fingerprint() })
	lk := r.t.begin("serve.lookup", root)
	r.t.setCur(lk)
	plan, _, cached, err = r.svc.Plan(context.Background(), pr)
	r.t.end(lk)
	if err != nil {
		return nil, err
	}
	if !cached {
		r.appendLog(root, "plan", fp, plan)
	}
	r.telemetryTrace(root, "plan", fp, cached)
	r.t.do("serve.encode", root, func() { out, err = planResponse(fp, cached, plan) })
	r.t.end(root)
	if err == nil {
		// A repeat of the request is a cache hit; count what the hit path
		// allocates for this plan, outside any span.
		a0 := mallocs()
		if _, err = r.hitPath(body); err == nil {
			r.t.sample("serve.hit_allocs", float64(mallocs()-a0))
		}
	}
	return out, err
}

// hitPath serves a cached plan request: decode, fingerprint, lookup,
// telemetry and encode, with no spans.
func (r *replayer) hitPath(body []byte) ([]byte, error) {
	pr, _, err := decodePlan(body)
	if err != nil {
		return nil, err
	}
	fp := pr.Fingerprint()
	plan, _, cached, err := r.svc.Plan(context.Background(), pr)
	if err != nil {
		return nil, err
	}
	if !cached {
		return nil, fmt.Errorf("repeat of %s was not a cache hit", fp)
	}
	tr := r.tel.Begin("plan")
	tr.AppendHeader(nil)
	tr.Finish(fp, cached, http.StatusOK)
	return planResponse(fp, cached, plan)
}

// serveCompare replays one /v1/compare request: topoopt.CompareContext
// broken into each fabric's layers. TopoOpt's entry is the plan request it
// equals, served by the in-process service.
func (r *replayer) serveCompare(class string, body []byte) ([]byte, error) {
	t := r.t
	root := t.root(class)
	var (
		cr    serve.CompareRequest
		m     *topoopt.Model
		err   error
		fp    string
		out   []byte
		archs []topoopt.Architecture
		// topoReq is the plan request TopoOpt's entry equals; a repeat of
		// it after the root closes measures the hit path's allocations.
		topoReq *serve.PlanRequest
	)
	t.do("serve.decode", root, func() {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err = dec.Decode(&cr); err != nil {
			return
		}
		if m, err = cr.Model.Resolve(); err == nil {
			err = cr.Options.Validate()
		}
		for _, a := range cr.Archs {
			pa, perr := topoopt.ParseArchitecture(a)
			if perr != nil {
				err = perr
			}
			archs = append(archs, pa)
		}
	})
	if err != nil {
		return nil, err
	}
	t.do("serve.fingerprint", root, func() { fp = serve.CompareFingerprint(cr.Model, cr.Options, archs) })
	if len(archs) == 0 {
		archs = topoopt.Architectures()
	}
	o := cr.Options
	ao := arch.Options{Servers: o.Servers, Degree: o.Degree, LinkBW: o.LinkBandwidth,
		Batch: o.BatchPerGPU, Rounds: o.Rounds, MCMCIters: o.MCMCIters, Seed: o.Seed,
		PrimeOnly: o.PrimeOnly, GPU: o.GPU, Parallelism: o.Parallelism}
	batch := ao.Batch
	if batch <= 0 {
		batch = m.BatchPerGPU
	}
	gpu := ao.GPU
	if gpu.PeakFLOPS == 0 {
		gpu = model.A100
	}
	var results []topoopt.CompareResult
	for _, a := range archs {
		b, _ := arch.Lookup(string(a))
		res := topoopt.CompareResult{Arch: a}
		t.do("arch.cost", root, func() { res.CostUSD, err = b.Cost(ao) })
		if err != nil {
			return nil, err
		}
		switch {
		case a == topoopt.ArchTopoOpt:
			topoReq = &serve.PlanRequest{Model: cr.Model, Options: o}
			var plan *topoopt.Plan
			lk := t.begin("serve.lookup", root)
			t.setCur(lk)
			plan, _, _, err = r.svc.Plan(context.Background(), *topoReq)
			t.end(lk)
			if err != nil {
				return nil, err
			}
			res.Iteration = plan.PredictedIteration
		case isIterator(b):
			var it arch.Iteration
			t.do("arch.reconfig", root, func() { it, err = arch.Evaluate(context.Background(), b, m, ao) })
			if err != nil {
				return nil, err
			}
			res.Iteration = topoopt.IterationBreakdown{MPSeconds: it.MPSeconds, ComputeSeconds: it.ComputeSeconds,
				AllReduceSeconds: it.AllReduceSeconds, BandwidthTax: it.BandwidthTax}
		default:
			var fab *flexnet.Fabric
			t.do("arch.build", root, func() { fab, err = b.Build(ao) })
			if err != nil {
				return nil, err
			}
			// Build already filled the routes; filling a fresh table on the
			// built graph times the shortest-path share of Build.
			t.do("route.fill", root, func() { route.NewTable(fab.Net.G.N()).FillShortestPaths(fab.Net.G) })
			st := r.search(root, m, ao.Servers, fab, batch, gpu, flexnet.MCMCConfig{Iters: ao.MCMCIters, Seed: ao.Seed, Parallelism: ao.Parallelism})
			var dem traffic.Demand
			t.do("traffic.build", root, func() { dem, err = traffic.FromStrategy(m, st, batch) })
			if err != nil {
				return nil, err
			}
			it, serr := r.simulate(root, fab, dem, st.MaxComputeTime(m, gpu, batch))
			if serr != nil {
				return nil, serr
			}
			res.Iteration = topoopt.IterationBreakdown{MPSeconds: it.MPTime, ComputeSeconds: it.ComputeTime,
				AllReduceSeconds: it.AllReduceTime, BandwidthTax: it.BandwidthTax}
		}
		results = append(results, res)
	}
	r.appendLog(root, "compare", fp, results)
	r.telemetryTrace(root, "compare", fp, false)
	t.do("serve.encode", root, func() {
		var buf bytes.Buffer
		err = json.NewEncoder(&buf).Encode(serve.CompareResponse{Fingerprint: fp, Results: results})
		out = buf.Bytes()
	})
	t.end(root)
	if topoReq != nil {
		body, _ := json.Marshal(topoReq)
		a0 := mallocs()
		if _, herr := r.hitPath(body); herr == nil {
			t.sample("serve.hit_allocs", float64(mallocs()-a0))
		}
	}
	return out, err
}

func isIterator(b arch.Backend) bool {
	_, ok := b.(arch.Iterator)
	return ok
}

// storePlan replays the planning of one boot-store entry, outside the
// service, and checks it against the plan the store holds.
func (r *replayer) storePlan(class string, pr serve.PlanRequest, want *topoopt.Plan) {
	root := r.t.root(class)
	var m *topoopt.Model
	var err error
	r.t.do("serve.decode", root, func() { m, err = pr.Model.Resolve() })
	var p *topoopt.Plan
	if err == nil {
		p, err = r.plan(root, m, pr.Options)
	}
	if err == nil {
		var fp string
		r.t.do("serve.fingerprint", root, func() { fp = pr.Fingerprint() })
		r.appendLog(root, "plan", fp, p)
	}
	r.t.end(root)
	if err != nil {
		r.errs.add("replaying store plan: %v", err)
		return
	}
	a, _ := json.Marshal(p)
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) {
		r.errs.add("replayed store plan %s differs from topoopt.Optimize's", pr.Fingerprint())
	}
}

// daemonCycle is what one cycle against a real daemon returned.
type daemonCycle struct {
	responses [][]byte
	rtt       []float64 // ms per request
	server    []float64 // ms per request, the daemon's own total
}

// runDaemonCycle boots a daemon, sends one cycle and collects each
// response with its round trip and the daemon's own recorded time.
func runDaemonCycle(e *env, in *inputs, pristine string, want [][]byte) (*daemonCycle, error) {
	d, err := bootDaemon(e, pristine)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	lr := newLoadRun(len(in.reqs))
	runCycle(e, d, in, lr, want)
	if len(lr.errs) > 0 {
		return nil, fmt.Errorf("daemon cycle: %s", strings.Join(lr.errs, "; "))
	}
	dc := &daemonCycle{responses: lr.first, rtt: make([]float64, len(in.reqs)), server: make([]float64, len(in.reqs))}
	for i, lat := range lr.perReq {
		dc.rtt[i] = lat[0]
	}
	var recs serve.DebugRequests
	if err := getJSON(e.client, d.base+"/debug/requests", &recs); err != nil {
		return nil, err
	}
	total := map[string]float64{}
	for _, rec := range recs.Requests {
		total[rec.Fingerprint] = rec.TotalSeconds * 1e3
	}
	for i, body := range dc.responses {
		var a struct {
			Fingerprint string `json:"fingerprint"`
		}
		if err := json.Unmarshal(body, &a); err != nil {
			return nil, err
		}
		dc.server[i] = total[a.Fingerprint]
	}
	return dc, nil
}

// runTraced replays whole cycles of the workload in-process for at least
// dur and reports the per-layer metrics.
func runTraced(e *env, workload string, in *inputs, dur time.Duration) (*result, error) {
	pristine := filepath.Join(e.work, "store")
	storePlans, err := buildStore(pristine, in.store, e.lanes)
	if err != nil {
		return nil, err
	}
	var want [][]byte
	if workload == "hit" {
		if want, err = hitResponses(in, storePlans); err != nil {
			return nil, err
		}
	}
	dc, err := runDaemonCycle(e, in, pristine, want)
	if err != nil {
		return nil, err
	}
	byFp := storeIndex(in, storePlans)
	t := newTracer()
	rp := &replayer{t: t, e: e, tel: telemetry.NewRegistry(0)}
	defer rp.close()
	var order []int
	for _, lane := range in.lanes {
		order = append(order, lane...)
	}
	replayed := 0
	// Odd cycles serve the same requests in-process without spans; the
	// difference between the two kinds of cycle is the tracing overhead.
	plainMS, plainCycles := 0.0, 0
	start := time.Now()
	for cycle := 0; cycle < 2 || time.Since(start) < dur; cycle++ {
		if cycle%2 == 1 {
			ms, err := untracedPass(e, in, pristine, order, cycle)
			if err != nil {
				return nil, err
			}
			plainMS += ms
			plainCycles++
			continue
		}
		rp.close()
		if err := rp.boot(pristine, cycle); err != nil {
			return nil, err
		}
		if workload == "hit" {
			// The hit path never searches: replay the working set's planning
			// (what built the store) for the search layers.
			for _, req := range in.reqs {
				p := byFp[req.plan.Fingerprint()]
				rp.storePlan(fmt.Sprintf("store n=%d", req.plan.Options.Servers), req.plan, p)
			}
		}
		for _, i := range order {
			req := in.reqs[i]
			class := req.class
			var out []byte
			var err error
			if req.path == "/v1/compare" {
				class = "compare " + req.cmp.Model.Preset
				out, err = rp.serveCompare(class, req.body)
			} else {
				if class == classHit {
					class = fmt.Sprintf("hit n=%d", req.plan.Options.Servers)
				}
				out, err = rp.servePlan(class, req.body)
			}
			if err != nil {
				return nil, fmt.Errorf("replaying request %d: %w", i, err)
			}
			if !bytes.Equal(out, dc.responses[i]) {
				rp.errs.add("replayed %s request %d differs from the daemon's answer", req.class, i)
			}
			replayed++
		}
		if cycle == 0 && workload != "compare" {
			// Hit and replan requests never cross the fabric layers; replay
			// one comparison so they read a figure here too.
			out, err := rp.serveCompare("probe compare", in.probe.body)
			if err != nil {
				return nil, fmt.Errorf("replaying the compare probe: %w", err)
			}
			var a compareAnswer
			m, _ := in.probe.cmp.Model.Resolve()
			want, cerr := topoopt.Compare(m, in.probe.cmp.Options)
			if err := json.Unmarshal(out, &a); err != nil || cerr != nil || !slices.Equal(a.Results, want) {
				rp.errs.add("replayed compare probe differs from topoopt.Compare (%v %v)", err, cerr)
			}
		}
	}
	logf("%s traced: %d requests replayed in %.1fs", workload, replayed, time.Since(start).Seconds())

	// The replayed answers are the daemon's; run the workload's checks on
	// them too, so a traced run fails the same requests as a measured one.
	lr := newLoadRun(len(in.reqs))
	lr.first = dc.responses
	var chk checked
	switch workload {
	case "hit":
		chk = checkHit(in, storePlans)
	case "replan":
		chk = checkReplan(in, lr)
	case "compare":
		chk = checkCompare(in, lr)
	}
	rp.errs = append(rp.errs, chk.errs...)

	led := t.ledger()
	if err := t.write(filepath.Join(e.root, ".bench_build", fmt.Sprintf("spans-%s.tsv", workload))); err != nil {
		return nil, err
	}
	led.print(workload)
	metrics := led.metrics(t, dc)
	// Every replayed request, and each class's time in sum, must be
	// covered by the spans of its layers.
	for _, cl := range led.classes {
		if cl.low > 0 {
			rp.errs.add("spans cover under %.1f of %d %s requests' time", minCoverage, cl.low, cl.class)
		}
		if cl.coverage() < minCoverage {
			rp.errs.add("spans cover only %.3f of the %s requests' time", cl.coverage(), cl.class)
		}
	}
	// Tracing overhead: the traced replay's request time against the same
	// requests served in-process without spans.
	var replayMS float64
	for _, l := range led.classes {
		if l.class != "boot" && !strings.HasPrefix(l.class, "store") && !strings.HasPrefix(l.class, "probe") {
			replayMS += l.totalMS
		}
	}
	replayMS /= t.counts["boots"]
	plainMS /= float64(plainCycles)
	logf("%s traced: %.1f ms of requests per cycle traced, %.1f ms untraced: tracing overhead %+.1f%%",
		workload, replayMS, plainMS, (replayMS/plainMS-1)*100)
	logf("%s traced: %.0f searches, %.0f beat their start; %.0f warm starts, %.0f adopted the neighbour's strategy",
		workload, t.counts["flexnet.searches"], t.counts["flexnet.improved_searches"],
		t.counts["flexnet.warm_starts"], t.counts["flexnet.warm_adopted"])
	for _, s := range rp.errs {
		logf("%s traced: %s", workload, s)
	}
	return &result{Correct: len(rp.errs) == 0, Attempted: replayed,
		Failed: chk.failing * int(t.counts["boots"]), Metrics: metrics}, nil
}

// untracedPass boots an in-process service with the default planner,
// serves one cycle without spans and returns its summed request time in
// ms.
func untracedPass(e *env, in *inputs, pristine string, order []int, cycle int) (float64, error) {
	dir := filepath.Join(e.work, fmt.Sprintf("untraced-%d", cycle))
	if err := copyDir(pristine, dir); err != nil {
		return 0, err
	}
	st, err := serve.OpenStore(dir)
	if err != nil {
		return 0, err
	}
	svc := serve.New(serve.Config{Store: st})
	defer os.RemoveAll(dir)
	defer svc.Close()
	tel := telemetry.NewRegistry(0)
	var total time.Duration
	for _, i := range order {
		req := in.reqs[i]
		start := time.Now()
		tr := tel.Begin("request")
		var fp string
		var cached bool
		var v any
		if req.path == "/v1/compare" {
			var cr serve.CompareRequest
			if err := json.Unmarshal(req.body, &cr); err != nil {
				return 0, err
			}
			m, err := cr.Model.Resolve()
			if err != nil {
				return 0, err
			}
			res, cfp, _, err := svc.Compare(context.Background(), cr.Model, m, cr.Options, nil)
			if err != nil {
				return 0, err
			}
			fp, v = cfp, serve.CompareResponse{Fingerprint: cfp, Results: res}
		} else {
			pr, _, err := decodePlan(req.body)
			if err != nil {
				return 0, err
			}
			fp = pr.Fingerprint()
			var p *topoopt.Plan
			p, _, cached, err = svc.Plan(context.Background(), pr)
			if err != nil {
				return 0, err
			}
			v = serve.PlanResponse{Fingerprint: fp, Cached: cached, Plan: p}
		}
		tr.AppendHeader(nil)
		tr.Finish(fp, cached, http.StatusOK)
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			return 0, err
		}
		total += time.Since(start)
	}
	return float64(total) / 1e6, nil
}
