// Package slo is the load engine behind cmd/planload: it fires
// requests either open loop, on Poisson arrivals at a fixed offered
// rate, or closed loop, from a fixed pool of clients that each wait for
// their reply. Either way it reports time-bucketed latency quantiles, a
// per-class breakdown, and a pass/fail gate against a target p99; a
// saturation-point search binary-searches the highest open-loop rate
// still meeting the gate.
//
// Open loop means the arrival schedule never waits for responses —
// unlike a closed-loop worker pool, which self-throttles as the server
// slows down and therefore flatters its tail latencies. The schedule is
// drawn up front from a seeded exponential inter-arrival process, so a
// (rate, duration, seed) triple offers a deterministic request count at
// deterministic offsets; only the measured latencies vary run to run.
package slo

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"topoopt/internal/stats"
)

// Result is one request's outcome as reported by the Fire callback.
type Result struct {
	// Err marks the request as failed (transport error or non-2xx after
	// retries). Failed requests count toward bucket error totals and are
	// excluded from the time-bucket and overall latency quantiles.
	Err bool
	// Class labels the request for the report's per-class breakdown
	// (e.g. "plan/warm" or "plan/5xx"); empty leaves it out.
	Class string
}

// Config parameterizes one run. Clients > 0 selects the closed loop;
// otherwise the run is open loop.
type Config struct {
	// Rate is the open-loop arrival rate in requests/second. Required > 0
	// in open loop.
	Rate float64
	// Duration is how long open-loop arrivals are offered. Required > 0 in
	// open loop. Requests fired near the end still complete and are
	// recorded; the run ends when the last one does.
	Duration time.Duration
	// Clients is the closed loop's worker count: each worker fires the
	// next request index and waits for its reply before taking another,
	// so at most Clients requests are in flight.
	Clients int
	// Requests is how many requests a closed loop fires (indices
	// 0..Requests-1, handed out in order). Required > 0 in closed loop.
	Requests int
	// Bucket is the latency-quantile bucketing period (default 1s,
	// clamped to the run's duration).
	Bucket time.Duration
	// Seed seeds the arrival process (0 means seed 1, keeping runs
	// deterministic by default).
	Seed int64
	// Fire issues request i and reports its outcome. It must be safe for
	// concurrent use: open loop calls it from one goroutine per arrival
	// (fire-and-forget), closed loop from the Clients workers. Its latency
	// is measured around the whole call.
	Fire func(i int) Result
}

// Bucket is one row of a report: the requests that ARRIVED in one time
// slice [StartSeconds, StartSeconds+width), the whole run (Overall), or
// one request class (Classes), with quantiles over their completion
// latencies.
type Bucket struct {
	// Class names a per-class row; empty on time buckets and Overall.
	Class        string  `json:"class,omitempty"`
	StartSeconds float64 `json:"start_seconds"`
	Count        int     `json:"count"`
	Errors       int     `json:"errors"`
	P50Seconds   float64 `json:"p50_seconds"`
	P99Seconds   float64 `json:"p99_seconds"`
	P999Seconds  float64 `json:"p999_seconds"`
	MaxSeconds   float64 `json:"max_seconds"`
}

// Gate is the pass/fail SLO verdict for a run.
type Gate struct {
	TargetP99Seconds float64 `json:"target_p99_seconds"`
	ActualP99Seconds float64 `json:"actual_p99_seconds"`
	MaxErrors        int     `json:"max_errors"`
	Errors           int     `json:"errors"`
	Pass             bool    `json:"pass"`
}

// Report is the machine-readable outcome of one run.
type Report struct {
	// OfferedRate is the open-loop arrival rate (0 in closed loop).
	OfferedRate float64 `json:"offered_rate"`
	// DurationSeconds is the offered duration in open loop and the
	// measured wall time in closed loop.
	DurationSeconds float64 `json:"duration_seconds"`
	BucketSeconds   float64 `json:"bucket_seconds"`
	Seed            int64   `json:"seed"`
	// Clients is the closed loop's worker count (0 in open loop).
	Clients  int `json:"clients,omitempty"`
	Requests int `json:"requests"`
	Errors   int `json:"errors"`
	// AchievedRate is completed-OK requests over DurationSeconds.
	AchievedRate float64 `json:"achieved_rate"`
	// Overall aggregates the whole run (StartSeconds 0).
	Overall Bucket   `json:"overall"`
	Buckets []Bucket `json:"buckets"`
	// Classes breaks the run down by Result.Class, sorted by name. A
	// class row's quantiles cover its failed requests too (their latency
	// includes retry backoff), which Overall and Buckets exclude.
	Classes []Bucket `json:"classes,omitempty"`
	// SLO is set by Apply when the caller gates the run.
	SLO *Gate `json:"slo,omitempty"`
}

// sample is one completed request: its arrival offset (scheduled in
// open loop, measured in closed loop), measured latency and outcome.
type sample struct {
	at    time.Duration
	lat   float64
	err   bool
	class string
}

// Schedule returns the deterministic arrival offsets for (rate,
// duration, seed): exponential inter-arrival gaps with mean 1/rate,
// truncated at duration.
func Schedule(rate float64, duration time.Duration, seed int64) []time.Duration {
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed))
	var offs []time.Duration
	t := time.Duration(0)
	for {
		gap := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		t += gap
		if t >= duration {
			return offs
		}
		offs = append(offs, t)
	}
}

// Run executes one run, open or closed loop, and aggregates it into a
// Report.
func Run(cfg Config) (*Report, error) {
	closed := cfg.Clients > 0
	switch {
	case cfg.Fire == nil:
		return nil, fmt.Errorf("slo: Fire must be set")
	case closed && cfg.Requests <= 0:
		return nil, fmt.Errorf("slo: a closed loop needs positive Requests, got %d", cfg.Requests)
	case !closed && cfg.Rate <= 0:
		return nil, fmt.Errorf("slo: rate must be positive, got %g", cfg.Rate)
	case !closed && cfg.Duration <= 0:
		return nil, fmt.Errorf("slo: duration must be positive, got %s", cfg.Duration)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}

	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	fire := func(i int, at time.Duration) {
		t0 := time.Now()
		res := cfg.Fire(i)
		s := sample{at: at, lat: time.Since(t0).Seconds(), err: res.Err, class: res.Class}
		mu.Lock()
		samples = append(samples, s)
		mu.Unlock()
	}
	start := time.Now()
	if closed {
		var next atomic.Int64
		for w := 0; w < cfg.Clients; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < cfg.Requests; i = int(next.Add(1) - 1) {
					fire(i, time.Since(start))
				}
			}()
		}
		wg.Wait()
		cfg.Duration = max(time.Since(start), time.Nanosecond)
	} else {
		for i, off := range Schedule(cfg.Rate, cfg.Duration, cfg.Seed) {
			// Fire-and-forget: sleep to the scheduled arrival, then launch
			// the request on its own goroutine. The scheduler never waits for
			// a response, so a saturated server faces the full offered rate.
			if d := time.Until(start.Add(off)); d > 0 {
				time.Sleep(d)
			}
			wg.Add(1)
			go func(i int, off time.Duration) {
				defer wg.Done()
				fire(i, off)
			}(i, off)
		}
		wg.Wait()
	}
	if cfg.Bucket <= 0 {
		cfg.Bucket = time.Second
	}
	if cfg.Bucket > cfg.Duration {
		cfg.Bucket = cfg.Duration
	}
	return aggregate(cfg, samples), nil
}

// row accumulates one report row: request and error counts plus the
// latencies its quantiles are taken over.
type row struct {
	count, errs int
	lats        []float64
}

// add counts s; its latency joins the quantiles when it succeeded or
// when withFailed is set (class rows).
func (r *row) add(s sample, withFailed bool) {
	r.count++
	if s.err {
		r.errs++
	}
	if !s.err || withFailed {
		r.lats = append(r.lats, s.lat)
	}
}

func (r *row) bucket(class string, startS float64) Bucket {
	b := Bucket{Class: class, StartSeconds: startS, Count: r.count, Errors: r.errs}
	if len(r.lats) > 0 {
		sort.Float64s(r.lats)
		b.P50Seconds = stats.PercentileSorted(r.lats, 50)
		b.P99Seconds = stats.PercentileSorted(r.lats, 99)
		b.P999Seconds = stats.PercentileSorted(r.lats, 99.9)
		b.MaxSeconds = r.lats[len(r.lats)-1]
	}
	return b
}

func aggregate(cfg Config, samples []sample) *Report {
	width := cfg.Bucket.Seconds()
	var (
		overall row
		times   = make([]row, int(math.Ceil(cfg.Duration.Seconds()/width)))
		classes = map[string]*row{}
	)
	for _, s := range samples {
		overall.add(s, false)
		times[min(int(s.at.Seconds()/width), len(times)-1)].add(s, false)
		if s.class != "" {
			if classes[s.class] == nil {
				classes[s.class] = &row{}
			}
			classes[s.class].add(s, true)
		}
	}
	rep := &Report{
		OfferedRate:     cfg.Rate,
		DurationSeconds: cfg.Duration.Seconds(),
		BucketSeconds:   width,
		Seed:            cfg.Seed,
		Clients:         cfg.Clients,
		Requests:        overall.count,
		Errors:          overall.errs,
		AchievedRate:    float64(len(overall.lats)) / cfg.Duration.Seconds(),
		Overall:         overall.bucket("", 0),
	}
	for b := range times {
		if times[b].count > 0 {
			rep.Buckets = append(rep.Buckets, times[b].bucket("", float64(b)*width))
		}
	}
	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rep.Classes = append(rep.Classes, classes[name].bucket(name, 0))
	}
	return rep
}

// Apply gates the report against a target p99 and an error budget,
// recording the verdict in r.SLO and returning pass/fail. maxErrors < 0
// disables the error check.
func (r *Report) Apply(targetP99 time.Duration, maxErrors int) bool {
	g := &Gate{
		TargetP99Seconds: targetP99.Seconds(),
		ActualP99Seconds: r.Overall.P99Seconds,
		MaxErrors:        maxErrors,
		Errors:           r.Errors,
		Pass:             true,
	}
	if targetP99 > 0 && r.Overall.P99Seconds > targetP99.Seconds() {
		g.Pass = false
	}
	if maxErrors >= 0 && r.Errors > maxErrors {
		g.Pass = false
	}
	// A run that completed nothing passes no gate.
	if r.Requests > 0 && r.Requests == r.Errors {
		g.Pass = false
	}
	r.SLO = g
	return g.Pass
}

// String renders the human-readable table: time buckets, the overall
// row, then one row per class.
func (r *Report) String() string {
	var sb strings.Builder
	if r.Clients > 0 {
		fmt.Fprintf(&sb, "closed-loop: %d clients for %.2fs: %d requests, %d errors, achieved %.1f req/s\n",
			r.Clients, r.DurationSeconds, r.Requests, r.Errors, r.AchievedRate)
	} else {
		fmt.Fprintf(&sb, "open-loop: offered %.1f req/s for %.1fs (seed %d): %d requests, %d errors, achieved %.1f req/s\n",
			r.OfferedRate, r.DurationSeconds, r.Seed, r.Requests, r.Errors, r.AchievedRate)
	}
	width := 12
	for _, c := range r.Classes {
		width = max(width, len(c.Class))
	}
	line := func(label string, b Bucket) {
		fmt.Fprintf(&sb, "  %-*s %6d %6d %9.1fms %9.1fms %9.1fms %9.1fms\n", width, label, b.Count, b.Errors,
			b.P50Seconds*1e3, b.P99Seconds*1e3, b.P999Seconds*1e3, b.MaxSeconds*1e3)
	}
	fmt.Fprintf(&sb, "  %-*s %6s %6s %10s %10s %10s %10s\n",
		width, "bucket", "n", "err", "p50", "p99", "p999", "max")
	for _, b := range r.Buckets {
		line(fmt.Sprintf("[%5.1fs,+%.3gs)", b.StartSeconds, r.BucketSeconds), b)
	}
	line("overall", r.Overall)
	for _, c := range r.Classes {
		line(c.Class, c)
	}
	if g := r.SLO; g != nil {
		verdict := "PASS"
		if !g.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&sb, "  SLO %s: p99 %.1fms vs target %.1fms, errors %d (max %d)\n",
			verdict, g.ActualP99Seconds*1e3, g.TargetP99Seconds*1e3, g.Errors, g.MaxErrors)
	}
	return sb.String()
}

// BenchLines renders the run as `go test -bench`-style lines so the
// benchdiff ledger (BENCH_serve.json, BENCH_HISTORY.json) can ingest an
// SLO trajectory with the machinery it already has. One synthetic
// iteration per line; the value is the quantile in ns.
func (r *Report) BenchLines(prefix string) string {
	var sb strings.Builder
	line := func(name string, seconds float64) {
		fmt.Fprintf(&sb, "Benchmark%s%s \t 1 \t %.0f ns/op\n", prefix, name, seconds*1e9)
	}
	line("P50", r.Overall.P50Seconds)
	line("P99", r.Overall.P99Seconds)
	line("P999", r.Overall.P999Seconds)
	return sb.String()
}

// SearchStep is one probe of the saturation search.
type SearchStep struct {
	Rate       float64 `json:"rate"`
	P99Seconds float64 `json:"p99_seconds"`
	Errors     int     `json:"errors"`
	Pass       bool    `json:"pass"`
}

// SearchConfig parameterizes Saturate.
type SearchConfig struct {
	// MinRate and MaxRate bracket the search (req/s). Required
	// 0 < MinRate < MaxRate.
	MinRate, MaxRate float64
	// Iters is the number of bisection steps after the bracket probes
	// (default 5; each halves the bracket, so 5 resolves the rate to
	// ~3% of the initial range).
	Iters int
	// TargetP99 and MaxErrors define passing, as in Report.Apply.
	TargetP99 time.Duration
	MaxErrors int
	// Measure runs one open-loop measurement at the given rate.
	Measure func(rate float64) (*Report, error)
}

// SaturationReport is the outcome of a saturation-point search.
type SaturationReport struct {
	MinRate          float64 `json:"min_rate"`
	MaxRate          float64 `json:"max_rate"`
	TargetP99Seconds float64 `json:"target_p99_seconds"`
	// SaturationRate is the highest probed rate that met the gate, or 0
	// when even MinRate failed.
	SaturationRate float64      `json:"saturation_rate"`
	Steps          []SearchStep `json:"steps"`
}

// Saturate binary-searches the highest offered rate meeting the SLO
// gate. It probes MinRate and MaxRate first: a failing MinRate reports
// saturation 0 (the server cannot meet the target at all), a passing
// MaxRate reports MaxRate (the bracket never saturated). Otherwise
// Iters bisection steps shrink the bracket; the returned rate is the
// highest rate that actually passed a measurement, so it is always a
// rate the server was observed to sustain.
func Saturate(cfg SearchConfig) (*SaturationReport, error) {
	if cfg.MinRate <= 0 || cfg.MaxRate <= cfg.MinRate {
		return nil, fmt.Errorf("slo: need 0 < MinRate < MaxRate, got [%g, %g]", cfg.MinRate, cfg.MaxRate)
	}
	if cfg.Measure == nil {
		return nil, fmt.Errorf("slo: Measure must be set")
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 5
	}
	rep := &SaturationReport{
		MinRate: cfg.MinRate, MaxRate: cfg.MaxRate,
		TargetP99Seconds: cfg.TargetP99.Seconds(),
	}
	probe := func(rate float64) (bool, error) {
		r, err := cfg.Measure(rate)
		if err != nil {
			return false, err
		}
		pass := r.Apply(cfg.TargetP99, cfg.MaxErrors)
		rep.Steps = append(rep.Steps, SearchStep{
			Rate: rate, P99Seconds: r.Overall.P99Seconds, Errors: r.Errors, Pass: pass,
		})
		return pass, nil
	}
	ok, err := probe(cfg.MinRate)
	if err != nil {
		return nil, err
	}
	if !ok {
		return rep, nil // saturated below the bracket
	}
	rep.SaturationRate = cfg.MinRate
	ok, err = probe(cfg.MaxRate)
	if err != nil {
		return nil, err
	}
	if ok {
		rep.SaturationRate = cfg.MaxRate
		return rep, nil
	}
	lo, hi := cfg.MinRate, cfg.MaxRate
	for i := 0; i < cfg.Iters; i++ {
		mid := (lo + hi) / 2
		ok, err := probe(mid)
		if err != nil {
			return nil, err
		}
		if ok {
			lo = mid
			rep.SaturationRate = mid
		} else {
			hi = mid
		}
	}
	return rep, nil
}

// BenchLine renders the saturation result for the benchdiff ledger: the
// mean inter-arrival time at the saturation rate, in ns/op — a real
// per-request figure that falls as the sustainable rate rises.
func (s *SaturationReport) BenchLine(prefix string) string {
	if s.SaturationRate <= 0 {
		return ""
	}
	return fmt.Sprintf("Benchmark%sSaturationInterval \t 1 \t %.0f ns/op\n", prefix, 1e9/s.SaturationRate)
}
