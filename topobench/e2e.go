package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"topoopt"
	"topoopt/internal/arch"
	"topoopt/internal/serve"
	"topoopt/topobench/planchk"
)

// setupBoots is how many daemons the hit workload boots, one at the start
// of each equal part of the run, so its setup_s is the median of boots
// spread through the run. The other workloads boot once per cycle.
const setupBoots = 3

// outcome is one answered request.
type outcome struct {
	lat    time.Duration
	status int
	err    error
}

// loadRun accumulates what the closed loop measured.
type loadRun struct {
	perReq   [][]float64 // latencies in ms, by request index
	requests int
	cycleS   []float64 // wall time of each cycle's request phase, s
	alloc    uint64    // daemon heap bytes allocated during those phases
	rss      []float64 // peak RSS per daemon, MB
	setups   []float64 // boot times, s
	cycles   int
	// first holds each request's response body from the first cycle; later
	// cycles must answer byte for byte the same.
	first     [][]byte
	mismatch  int // responses that differ from the expected bytes
	httpFails int // requests that got no 200 answer
	errs      faults
}

func newLoadRun(requests int) *loadRun {
	return &loadRun{first: make([][]byte, requests), perReq: make([][]float64, requests)}
}

// send POSTs body to url and reads the whole answer into buf.
func send(c *http.Client, url string, body []byte, buf *bytes.Buffer) outcome {
	buf.Reset()
	start := time.Now()
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return outcome{lat: time.Since(start), status: resp.StatusCode, err: err}
}

// runCycle sends one cycle of requests, each lane in order on its own
// connection, and waits for every lane. want, when non-nil, gives the
// exact expected response of each request.
func runCycle(e *env, d *daemon, in *inputs, lr *loadRun, want [][]byte) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for _, lane := range in.lanes {
		lane := lane
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for _, i := range lane {
				r := in.reqs[i]
				o := send(e.client, d.base+r.path, r.body, &buf)
				mu.Lock()
				switch {
				case o.err != nil || o.status != http.StatusOK:
					lr.httpFails++
					lr.errs.add("%s request %d: status %d, %v: %.200s", r.class, i, o.status, o.err, buf.Bytes())
				case want != nil && !bytes.Equal(buf.Bytes(), want[i]):
					lr.mismatch++
					lr.errs.add("%s request %d: response differs from the expected plan", r.class, i)
				case lr.first[i] == nil:
					lr.first[i] = bytes.Clone(buf.Bytes())
				case !bytes.Equal(buf.Bytes(), lr.first[i]):
					lr.mismatch++
					lr.errs.add("%s request %d: response differs from the first cycle's", r.class, i)
				}
				lr.perReq[i] = append(lr.perReq[i], float64(o.lat)/1e6)
				lr.requests++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	lr.cycleS = append(lr.cycleS, time.Since(start).Seconds())
	lr.cycles++
}

// measured runs cycles against d until the deadline (at least one),
// reading the daemon's allocations around them.
func measured(e *env, d *daemon, in *inputs, lr *loadRun, want [][]byte, deadline time.Time) error {
	a0, err := d.totalAlloc(e.client)
	if err != nil {
		return err
	}
	for {
		runCycle(e, d, in, lr, want)
		if !time.Now().Before(deadline) {
			break
		}
	}
	a1, err := d.totalAlloc(e.client)
	if err != nil {
		return err
	}
	lr.alloc += a1 - a0
	rss, err := d.peakRSS()
	if err != nil {
		return err
	}
	lr.rss = append(lr.rss, rss)
	return nil
}

// runE2E builds the boot store, runs whole cycles of the workload against
// real daemons for at least dur, then checks every answer.
func runE2E(e *env, workload string, in *inputs, dur time.Duration) (*result, error) {
	pristine := filepath.Join(e.work, "store")
	storePlans, err := buildStore(pristine, in.store, e.lanes)
	if err != nil {
		return nil, err
	}
	lr := newLoadRun(len(in.reqs))
	var want [][]byte
	if workload == "hit" {
		if want, err = hitResponses(in, storePlans); err != nil {
			return nil, err
		}
	}
	warmWant := 0
	for _, r := range in.reqs {
		if r.class == classWarm {
			warmWant++
		}
	}
	var warmStarts, warmAdopted int64

	start := time.Now()
	if workload == "hit" {
		// Each daemon serves whole cycles for its share of the run. Every
		// one boots from the same store and holds the same working set, so
		// the parts add up to one run of the same cycles.
		for i := 0; i < setupBoots; i++ {
			d, err := bootDaemon(e, pristine)
			if err != nil {
				return nil, err
			}
			lr.setups = append(lr.setups, d.setup.Seconds())
			err = measured(e, d, in, lr, want, time.Now().Add(dur/setupBoots))
			d.stop()
			if err != nil {
				return nil, err
			}
		}
	} else {
		// Every cycle boots a fresh daemon from the pristine store, so each
		// cycle meets the same cache and similarity index.
		for lr.cycles == 0 || time.Since(start) < dur {
			d, err := bootDaemon(e, pristine)
			if err != nil {
				return nil, err
			}
			lr.setups = append(lr.setups, d.setup.Seconds())
			err = measured(e, d, in, lr, nil, time.Time{})
			var m serve.MetricsSnapshot
			if err == nil {
				err = getJSON(e.client, d.base+"/v1/metrics", &m)
			}
			d.stop()
			if err != nil {
				return nil, err
			}
			if m.WarmStarts != int64(warmWant) {
				lr.errs.add("cycle %d: %d warm starts, want %d", lr.cycles, m.WarmStarts, warmWant)
				lr.mismatch++
			}
			warmStarts += m.WarmStarts
			warmAdopted += m.WarmStartImproved
		}
	}
	load := 0.0
	for _, c := range lr.cycleS {
		load += c
	}
	logf("%s: %d cycles, %d requests in %.1fs of load (%.1fs with boots), GOMAXPROCS %d, %d connections",
		workload, lr.cycles, lr.requests, load, time.Since(start).Seconds(), runtime.GOMAXPROCS(0), e.lanes)

	var chk checked
	switch workload {
	case "hit":
		chk = checkHit(in, storePlans)
	case "replan":
		chk = checkReplan(in, lr)
		logf("replan: %d warm starts, %d adopted the neighbour's strategy", warmStarts, warmAdopted)
	case "compare":
		chk = checkCompare(in, lr)
	}
	return e2eResult(workload, in, lr, chk), nil
}

// checked is the outcome of a workload's output checks.
type checked struct {
	errs faults
	// failing counts the requests of one cycle that fail a contract
	// check but answered (the warm-versus-cold fault).
	failing int
	iterMS  float64 // mean predicted iteration of the answers
}

func e2eResult(workload string, in *inputs, lr *loadRun, chk checked) *result {
	tailQ := 0.90
	if workload == "hit" {
		tailQ = 0.99
	}
	primary := classHit
	switch workload {
	case "replan":
		primary = classWarm
	case "compare":
		primary = classCompare
	}
	// Latencies by class, and the sorted per-request medians, which show
	// where each percentile falls among the request types of a cycle.
	lat, meds := map[string][]float64{}, map[string][]float64{}
	for i, l := range lr.perReq {
		if len(l) > 0 {
			c := in.reqs[i].class
			lat[c] = append(lat[c], l...)
			meds[c] = append(meds[c], median(l))
		}
	}
	for class, l := range lat {
		logf("%s: %-7s n=%-5d p50 %.3f ms  p90 %.3f ms  p99 %.3f ms", workload, class, len(l),
			quantile(l, 0.5), quantile(l, 0.9), quantile(l, 0.99))
	}
	for class, m := range meds {
		sort.Float64s(m)
		var b strings.Builder
		for _, v := range m {
			fmt.Fprintf(&b, " %.1f", v)
		}
		logf("%s: %s request medians (ms):%s", workload, class, b.String())
	}
	for _, s := range append(lr.errs, chk.errs...) {
		logf("%s: %s", workload, s)
	}
	res := &result{
		Correct:   lr.mismatch == 0 && len(chk.errs) == 0,
		Attempted: lr.requests,
		Failed:    lr.httpFails + chk.failing*lr.cycles,
		Metrics: map[string]metric{
			// Every cycle sends the same requests; the median cycle's rate
			// shrugs off a cycle the host slowed.
			"req_per_s":        {float64(len(in.reqs)) / median(lr.cycleS), "1/s"},
			"p50_ms":           {quantile(lat[primary], 0.5), "ms"},
			"tail_ms":          {quantile(lat[primary], tailQ), "ms"},
			"alloc_kb_per_req": {float64(lr.alloc) / 1024 / float64(lr.requests), "KB"},
			"rss_mb":           {median(lr.rss), "MB"},
			"setup_s":          {median(lr.setups), "s"},
			"iter_ms":          {chk.iterMS, "ms"},
		},
	}
	return res
}

// hitResponses encodes the response the daemon must send for every hit
// request: the stored plan, marked cached.
func hitResponses(in *inputs, storePlans []*topoopt.Plan) ([][]byte, error) {
	byFp := storeIndex(in, storePlans)
	want := make([][]byte, len(in.reqs))
	for i, r := range in.reqs {
		fp := r.plan.Fingerprint()
		b, err := planResponse(fp, true, byFp[fp])
		if err != nil {
			return nil, err
		}
		want[i] = b
	}
	return want, nil
}

// checkHit runs the plan checker over the working set. Every response was
// already compared byte for byte with topoopt.Optimize's plan.
func checkHit(in *inputs, storePlans []*topoopt.Plan) checked {
	var chk checked
	byFp := storeIndex(in, storePlans)
	var sum float64
	for _, r := range in.reqs {
		p := byFp[r.plan.Fingerprint()]
		o := r.plan.Options
		if err := planchk.Check(p, o.Servers, o.Degree, o.LinkBandwidth); err != nil {
			chk.errs.add("plan check: %v", err)
		}
		sum += p.PredictedIteration.Total() * 1e3
	}
	chk.iterMS = sum / float64(len(in.reqs))
	return chk
}

// planAnswer is a decoded /v1/plan response; raw keeps the plan's bytes.
type planAnswer struct {
	Fingerprint string          `json:"fingerprint"`
	Cached      bool            `json:"cached"`
	Plan        json.RawMessage `json:"plan"`
}

// checkReplan checks each first-cycle answer: the plan checker on every
// plan, a cold plan byte-identical to topoopt.Optimize's, and a warm
// replan no slower than the same request planned cold in-process.
func checkReplan(in *inputs, lr *loadRun) checked {
	var chk checked
	var mu sync.Mutex
	var sum float64
	beats := 0
	forEach(len(in.reqs), 2, func(i int) error {
		r := in.reqs[i]
		var a planAnswer
		var p topoopt.Plan
		if err := json.Unmarshal(lr.first[i], &a); err != nil {
			mu.Lock()
			chk.errs.add("request %d: undecodable answer: %v", i, err)
			mu.Unlock()
			return nil
		}
		perr := json.Unmarshal(a.Plan, &p)
		cold, cerr := optimize(r.plan)
		mu.Lock()
		defer mu.Unlock()
		if perr != nil || cerr != nil {
			chk.errs.add("request %d: %v %v", i, perr, cerr)
			return nil
		}
		o := r.plan.Options
		if err := planchk.Check(&p, o.Servers, o.Degree, o.LinkBandwidth); err != nil {
			chk.errs.add("request %d plan check: %v", i, err)
		}
		sum += p.PredictedIteration.Total() * 1e3
		switch r.class {
		case classCold:
			if b, err := json.Marshal(cold); err != nil || !bytes.Equal(b, a.Plan) {
				chk.errs.add("cold request %d: plan differs from topoopt.Optimize's", i)
			}
		case classWarm:
			w, c := p.PredictedIteration.Total(), cold.PredictedIteration.Total()
			if w > c*(1+1e-9) {
				chk.failing++
				logf("replan: warm request %d (%s n=%d) predicts %.4f ms, cold %.4f ms",
					i, r.plan.Model.Preset, o.Servers, w*1e3, c*1e3)
			} else if w < c*(1-1e-9) {
				beats++
			}
		}
		return nil
	})
	logf("replan: %d warm replans slower than cold, %d faster", chk.failing, beats)
	chk.iterMS = sum / float64(len(in.reqs))
	return chk
}

// compareAnswer is a decoded /v1/compare response.
type compareAnswer struct {
	Results []topoopt.CompareResult `json:"results"`
}

// checkCompare checks each comparison: one result per registered fabric
// in registry order, TopoOpt's entry equal to topoopt.Optimize's plan,
// and every AllReduce phase no shorter than the ring bound at the
// fabric's per-server bandwidth (these models run pure data-parallel).
func checkCompare(in *inputs, lr *loadRun) checked {
	var chk checked
	var mu sync.Mutex
	var sum float64
	results := 0
	ratios := map[string][]float64{}
	names := topoopt.Architectures()
	forEach(len(in.reqs), 2, func(i int) error {
		r := in.reqs[i]
		var a compareAnswer
		err := json.Unmarshal(lr.first[i], &a)
		var p *topoopt.Plan
		if err == nil {
			p, err = optimize(serve.PlanRequest{Model: r.cmp.Model, Options: r.cmp.Options})
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			chk.errs.add("compare %d: %v", i, err)
			return nil
		}
		o := r.cmp.Options
		if err := planchk.Check(p, o.Servers, o.Degree, o.LinkBandwidth); err != nil {
			chk.errs.add("compare %d TopoOpt plan check: %v", i, err)
		}
		if len(a.Results) != len(names) {
			chk.errs.add("compare %d: %d results for %d fabrics", i, len(a.Results), len(names))
			return nil
		}
		arBytes := maxRingBytes(p)
		var topo, fat float64
		for k, cr := range a.Results {
			if cr.Arch != names[k] {
				chk.errs.add("compare %d: result %d is %s, registry order wants %s", i, k, cr.Arch, names[k])
			}
			sum += cr.Iteration.Total() * 1e3
			results++
			b, _ := arch.Lookup(string(cr.Arch))
			if b == nil {
				continue
			}
			is := b.Interfaces(arch.Options{Servers: o.Servers, Degree: o.Degree, LinkBW: o.LinkBandwidth})
			bound := arBytes * 8 / (float64(is.PerServer) * is.LinkBW)
			if cr.Iteration.AllReduceSeconds < bound*(1-1e-6) {
				chk.errs.add("compare %d: %s AllReduce %.6gs is below the ring bound %.6gs", i, cr.Arch, cr.Iteration.AllReduceSeconds, bound)
			}
			switch cr.Arch {
			case topoopt.ArchTopoOpt:
				topo = cr.Iteration.Total()
				if cr.Iteration != p.PredictedIteration {
					chk.errs.add("compare %d: TopoOpt entry %+v differs from topoopt.Optimize's %+v", i, cr.Iteration, p.PredictedIteration)
				}
			case topoopt.ArchFatTree:
				fat = cr.Iteration.Total()
			}
		}
		ratios[r.cmp.Model.Preset] = append(ratios[r.cmp.Model.Preset], fat/topo)
		return nil
	})
	for _, m := range []string{"bert", "resnet50", "vgg16", "candle"} {
		rs := ratios[m]
		sort.Float64s(rs)
		if len(rs) > 0 {
			logf("compare: %s cost-equivalent Fat-tree / TopoOpt iteration: %.2fx to %.2fx", m, rs[0], rs[len(rs)-1])
		}
	}
	if results > 0 {
		chk.iterMS = sum / float64(results)
	}
	return chk
}

// maxRingBytes is the most bytes any server sends in the plan's ring
// AllReduce phase: 2(k−1)/k of each of its groups' bytes.
func maxRingBytes(p *topoopt.Plan) float64 {
	per := map[int]float64{}
	for _, g := range p.Demand.Groups {
		k := len(g.Members)
		if k < 2 {
			continue
		}
		for _, m := range g.Members {
			per[m] += 2 * float64(k-1) / float64(k) * float64(g.Bytes)
		}
	}
	max := 0.0
	for _, b := range per {
		max = math.Max(max, b)
	}
	return max
}

func getJSON(c *http.Client, url string, v any) error {
	body, err := get(c, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
