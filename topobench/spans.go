package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one replayed request
// share req; a root span has parent -1.
type span struct {
	name       string
	start, end time.Time
	parent     int
	req        int
}

// tracer keeps every span of a traced run in memory, plus the counts
// measured at the same boundaries.
type tracer struct {
	mu      sync.Mutex
	spans   []span
	classes []string // class of each request id
	// cur is the open span that a plan computed on the service's worker
	// goroutine hangs under; the replay sets it around each Service.Plan.
	cur    int
	counts map[string]float64
	allocs map[string][]float64
}

func newTracer() *tracer {
	return &tracer{spans: make([]span, 0, 1<<16), counts: map[string]float64{}, allocs: map[string][]float64{}}
}

// root opens a request's root span.
func (t *tracer) root(class string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.classes = append(t.classes, class)
	t.spans = append(t.spans, span{name: "request", start: time.Now(), parent: -1, req: len(t.classes) - 1})
	return len(t.spans) - 1
}

// begin opens a child span of parent.
func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: time.Now(), parent: parent, req: t.spans[parent].req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	now := time.Now()
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// do runs f inside a child span of parent.
func (t *tracer) do(name string, parent int, f func()) {
	i := t.begin(name, parent)
	f()
	t.end(i)
}

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// sample records one allocation count measured at a layer boundary.
func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.allocs[name] = append(t.allocs[name], v)
	t.mu.Unlock()
}

func (t *tracer) setCur(i int) {
	t.mu.Lock()
	t.cur = i
	t.mu.Unlock()
}

func (t *tracer) current() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

// mallocs returns the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// layerStat is a layer's self time and call count within one class.
type layerStat struct {
	selfMS float64
	calls  int
}

// minCoverage is the share of each replayed request's time its spans must
// cover. coverSlackMS is the uncovered time allowed a request whatever its
// length: a GC pause between two spans of a sub-millisecond hit would
// otherwise fail it.
const (
	minCoverage  = 0.9
	coverSlackMS = 0.05
)

type classLedger struct {
	class     string
	roots     int
	totalMS   float64 // summed root durations
	coveredMS float64 // summed durations of the roots' direct children
	low       int     // requests whose spans cover under minCoverage of them
	layers    map[string]*layerStat
}

// coverage is the share of the class's request time its spans cover.
func (cl *classLedger) coverage() float64 {
	if cl.totalMS == 0 {
		return 1
	}
	return cl.coveredMS / cl.totalMS
}

type ledger struct {
	classes     []*classLedger
	all         map[string]*layerStat // every class
	minCoverage float64               // lowest single request
	minClass    string
}

// ledger folds the spans into per-class, per-layer self times. A span's
// self time is its duration minus its children's.
func (t *tracer) ledger() *ledger {
	child := make([]float64, len(t.spans))
	coverage := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			d := float64(s.end.Sub(s.start)) / 1e6
			child[s.parent] += d
			if t.spans[s.parent].parent < 0 {
				coverage[s.parent] += d
			}
		}
	}
	led := &ledger{all: map[string]*layerStat{}, minCoverage: 1}
	byClass := map[string]*classLedger{}
	for i, s := range t.spans {
		class := t.classes[s.req]
		cl := byClass[class]
		if cl == nil {
			cl = &classLedger{class: class, layers: map[string]*layerStat{}}
			byClass[class] = cl
			led.classes = append(led.classes, cl)
		}
		d := float64(s.end.Sub(s.start)) / 1e6
		if s.parent < 0 {
			cl.roots++
			cl.totalMS += d
			cl.coveredMS += coverage[i]
			if d > 0 {
				c := coverage[i] / d
				if c < minCoverage && d-coverage[i] > coverSlackMS {
					cl.low++
				}
				if c < led.minCoverage {
					led.minCoverage, led.minClass = c, class
				}
			}
			continue
		}
		for _, m := range []map[string]*layerStat{cl.layers, led.all} {
			ls := m[s.name]
			if ls == nil {
				ls = &layerStat{}
				m[s.name] = ls
			}
			ls.selfMS += d - child[i]
			ls.calls++
		}
	}
	sort.Slice(led.classes, func(i, j int) bool { return led.classes[i].class < led.classes[j].class })
	return led
}

// print writes the per-class ledger to stderr: per-request milliseconds
// of each layer's self time, and the share of request time the spans
// cover.
func (led *ledger) print(workload string) {
	logf("%s ledger (self ms per request; the lowest single request's span coverage is %.3f, in %s):",
		workload, led.minCoverage, led.minClass)
	for _, cl := range led.classes {
		names := make([]string, 0, len(cl.layers))
		for n := range cl.layers {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return cl.layers[names[i]].selfMS > cl.layers[names[j]].selfMS })
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, " %s=%.3f", n, cl.layers[n].selfMS/float64(cl.roots))
		}
		logf("  %-16s n=%-4d covered=%.3f (%d under %.1f) total=%.3f%s", cl.class, cl.roots, cl.coverage(), cl.low, minCoverage,
			cl.totalMS/float64(cl.roots), b.String())
	}
}

// perCall is a layer's mean self time per call, in ms.
func (led *ledger) perCall(name string) float64 {
	ls := led.all[name]
	if ls == nil || ls.calls == 0 {
		return 0
	}
	return ls.selfMS / float64(ls.calls)
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// metrics computes the per-layer metrics.
func (led *ledger) metrics(t *tracer, dc *daemonCycle) map[string]metric {
	ms := func(name string) metric { return metric{led.perCall(name), "ms"} }
	us := func(name string) metric { return metric{led.perCall(name) * 1e3, "us"} }
	perSearch := func(name string) metric {
		return metric{t.counts[name] / max(t.counts["flexnet.searches"], 1), "count"}
	}
	var kb, transport float64
	for i, body := range dc.responses {
		kb += float64(len(body)) / 1024
		transport += (dc.rtt[i] - dc.server[i]) * 1e3
	}
	n := float64(len(dc.responses))
	boots := max(t.counts["boots"], 1)
	return map[string]metric{
		"wal.open_ms":          ms("wal.open"),
		"serve.warm_ms":        ms("serve.warm"),
		"serve.warm_decoded":   {t.counts["serve.warm_decoded"] / boots, "count"},
		"serve.warm_kept":      {t.counts["serve.warm_kept"] / boots, "count"},
		"serve.decode_us":      us("serve.decode"),
		"serve.fingerprint_us": us("serve.fingerprint"),
		"serve.lookup_us":      us("serve.lookup"),
		"serve.encode_us":      us("serve.encode"),
		"serve.response_kb":    {kb / n, "KB"},
		"telemetry.trace_us":   us("telemetry.trace"),
		"serve.transport_us":   {transport / n, "us"},
		"serve.hit_allocs":     {meanOf(t.allocs["serve.hit_allocs"]), "count"},
		"flexnet.mcmc_ms":      ms("flexnet.mcmc"),
		"flexnet.proposals":    perSearch("flexnet.proposals"),
		"flexnet.evals":        perSearch("flexnet.evals"),
		"flexnet.eval_us":      us("flexnet.eval"),
		"flexnet.eval_allocs":  {meanOf(t.allocs["flexnet.eval_allocs"]), "count"},
		"flexnet.improvements": perSearch("flexnet.improvements"),
		"traffic.build_us":     us("traffic.build"),
		"core.topofinder_ms":   ms("core.topofinder"),
		"flexnet.estimate_us":  us("flexnet.estimate"),
		"flexnet.simulate_ms":  ms("flexnet.simulate"),
		"wal.append_us":        us("wal.append"),
		"arch.build_ms":        ms("arch.build"),
		"route.fill_ms":        ms("route.fill"),
		"arch.reconfig_ms":     ms("arch.reconfig"),
		"netsim.flows":         {t.counts["netsim.flows"] / max(t.counts["flexnet.simulations"], 1), "count"},
	}
}

// write saves every span as a tab-separated line: name, start and end in
// ns since the first span, parent index, request id and request class.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tstart_ns\tend_ns\tparent\treq\tclass")
	var t0 time.Time
	if len(t.spans) > 0 {
		t0 = t.spans[0].start
	}
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%s\n", s.name, s.start.Sub(t0), s.end.Sub(t0), s.parent, s.req, t.classes[s.req])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
