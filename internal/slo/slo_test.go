package slo

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleDeterministic(t *testing.T) {
	a := Schedule(100, time.Second, 7)
	b := Schedule(100, time.Second, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (rate, duration, seed) produced different schedules")
	}
	c := Schedule(100, time.Second, 8)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	// ~rate*duration arrivals, loosely (Poisson): 100±40 for mean 100.
	if len(a) < 60 || len(a) > 140 {
		t.Fatalf("schedule has %d arrivals for 100 req/s over 1s", len(a))
	}
	for i, off := range a {
		if off < 0 || off >= time.Second {
			t.Fatalf("arrival %d at %s outside [0, 1s)", i, off)
		}
		if i > 0 && off < a[i-1] {
			t.Fatalf("arrivals not monotonic at %d", i)
		}
	}
}

func TestRunBucketsAndQuantiles(t *testing.T) {
	var fired atomic.Int64
	rep, err := Run(Config{
		Rate:     400,
		Duration: 500 * time.Millisecond,
		Bucket:   100 * time.Millisecond,
		Seed:     3,
		Fire: func(i int) Result {
			fired.Add(1)
			time.Sleep(time.Millisecond)
			return Result{Err: i%10 == 9} // every 10th request fails
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := len(Schedule(400, 500*time.Millisecond, 3))
	if rep.Requests != want || int(fired.Load()) != want {
		t.Fatalf("requests=%d fired=%d, schedule says %d", rep.Requests, fired.Load(), want)
	}
	if rep.Errors == 0 || rep.Errors >= rep.Requests {
		t.Fatalf("errors=%d of %d, want some but not all", rep.Errors, rep.Requests)
	}
	sum, errSum := 0, 0
	for _, b := range rep.Buckets {
		sum += b.Count
		errSum += b.Errors
		if b.Count > b.Errors && (b.P50Seconds <= 0 || b.P99Seconds < b.P50Seconds) {
			t.Fatalf("bucket at %gs has bad quantiles: %+v", b.StartSeconds, b)
		}
	}
	if sum != rep.Requests || errSum != rep.Errors {
		t.Fatalf("bucket sums (%d, %d) != totals (%d, %d)", sum, errSum, rep.Requests, rep.Errors)
	}
	o := rep.Overall
	if o.Count != rep.Requests || o.P999Seconds < o.P99Seconds || o.MaxSeconds < o.P999Seconds {
		t.Fatalf("overall quantiles inconsistent: %+v", o)
	}
	if o.P50Seconds < 0.0005 {
		t.Fatalf("p50 %.4fs below the 1ms service floor", o.P50Seconds)
	}
	if rep.AchievedRate <= 0 {
		t.Fatal("achieved rate not computed")
	}
	out := rep.String()
	for _, needle := range []string{"open-loop", "p999", "overall"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("report text missing %q:\n%s", needle, out)
		}
	}
}

// TestRunClosedLoop: a closed loop fires every index exactly once and
// never has more than Clients requests in flight.
func TestRunClosedLoop(t *testing.T) {
	const clients, requests = 3, 40
	var (
		mu             sync.Mutex
		seen           = map[int]int{}
		inFlight, peak int
	)
	rep, err := Run(Config{
		Clients: clients, Requests: requests, Bucket: 10 * time.Millisecond,
		Fire: func(i int) Result {
			mu.Lock()
			seen[i]++
			inFlight++
			peak = max(peak, inFlight)
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			inFlight--
			mu.Unlock()
			return Result{Err: i == 7, Class: "c"}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != requests {
		t.Fatalf("fired %d distinct indices, want %d", len(seen), requests)
	}
	for i := 0; i < requests; i++ {
		if seen[i] != 1 {
			t.Fatalf("index %d fired %d times", i, seen[i])
		}
	}
	if peak > clients {
		t.Fatalf("%d requests in flight, cap is %d clients", peak, clients)
	}
	if rep.Clients != clients || rep.Requests != requests || rep.Errors != 1 || rep.OfferedRate != 0 {
		t.Fatalf("report clients=%d requests=%d errors=%d offered=%g", rep.Clients, rep.Requests, rep.Errors, rep.OfferedRate)
	}
	sum := 0
	for _, b := range rep.Buckets {
		sum += b.Count
	}
	if sum != requests || rep.DurationSeconds <= 0 || rep.AchievedRate <= 0 {
		t.Fatalf("buckets hold %d of %d requests over %gs at %g req/s", sum, requests, rep.DurationSeconds, rep.AchievedRate)
	}
	if !strings.HasPrefix(rep.String(), "closed-loop: 3 clients") {
		t.Fatalf("report text:\n%s", rep.String())
	}
}

// TestAggregateClasses: class rows are sorted by name and count failed
// requests, whose latencies (retry backoff included) stay out of the
// overall and time-bucket quantiles.
func TestAggregateClasses(t *testing.T) {
	var samples []sample
	for i := 1; i <= 100; i++ {
		samples = append(samples, sample{lat: float64(i) / 1000, class: "plan/cold"}) // 1ms..100ms
	}
	samples = append(samples,
		sample{lat: 2.5, err: true, class: "plan/retry-exhausted"},
		sample{lat: 3.5, err: true, class: "plan/retry-exhausted"},
		sample{lat: 0.02, class: "compare/cold"},
		sample{lat: 0.03, err: true, class: "compare/5xx"},
		sample{lat: 0.04}, // unlabelled: no class row
	)
	rep := aggregate(Config{Duration: time.Second, Bucket: time.Second}, samples)

	var names []string
	for _, c := range rep.Classes {
		names = append(names, c.Class)
	}
	want := []string{"compare/5xx", "compare/cold", "plan/cold", "plan/retry-exhausted"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("class rows %v, want %v", names, want)
	}
	cold, exhausted := rep.Classes[2], rep.Classes[3]
	if cold.Count != 100 || cold.Errors != 0 || cold.P50Seconds != 0.0505 || cold.MaxSeconds != 0.1 {
		t.Fatalf("plan/cold row wrong: %+v", cold)
	}
	if exhausted.Count != 2 || exhausted.Errors != 2 || exhausted.MaxSeconds != 3.5 {
		t.Fatalf("failed class row should count and time its failures: %+v", exhausted)
	}
	if rep.Requests != 105 || rep.Errors != 3 || rep.Overall.Count != 105 || rep.Overall.Errors != 3 {
		t.Fatalf("totals: requests=%d errors=%d overall=%+v", rep.Requests, rep.Errors, rep.Overall)
	}
	if rep.Overall.MaxSeconds != 0.1 || rep.Buckets[0].MaxSeconds != 0.1 {
		t.Fatalf("failed latencies leaked into overall (%g) or bucket (%g) quantiles", rep.Overall.MaxSeconds, rep.Buckets[0].MaxSeconds)
	}
	out := rep.String()
	if !strings.Contains(out, "  plan/retry-exhausted      2      2") {
		t.Fatalf("class row missing from report text:\n%s", out)
	}
}

func TestRunValidation(t *testing.T) {
	fire := func(int) Result { return Result{} }
	for _, cfg := range []Config{
		{Rate: 0, Duration: time.Second, Fire: fire},
		{Rate: 10, Duration: 0, Fire: fire},
		{Rate: 10, Duration: time.Second},
		{Clients: 2, Fire: fire}, // closed loop without Requests
	} {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("config %+v should be rejected", cfg)
		}
	}
}

func TestApplyGate(t *testing.T) {
	rep := &Report{Requests: 100, Errors: 2, Overall: Bucket{P99Seconds: 0.050}}
	if !rep.Apply(100*time.Millisecond, 5) || !rep.SLO.Pass {
		t.Fatal("50ms p99 should pass a 100ms target with 2 ≤ 5 errors")
	}
	if rep.Apply(10*time.Millisecond, 5) {
		t.Fatal("50ms p99 should fail a 10ms target")
	}
	if rep.Apply(100*time.Millisecond, 1) {
		t.Fatal("2 errors should fail a budget of 1")
	}
	if !rep.Apply(100*time.Millisecond, -1) {
		t.Fatal("negative budget disables the error check")
	}
	allFail := &Report{Requests: 5, Errors: 5}
	if allFail.Apply(0, -1) {
		t.Fatal("a run that completed nothing must not pass")
	}
	// The gate is recorded in the report text.
	if !strings.Contains(allFail.String(), "FAIL") {
		t.Fatal("failed gate missing from report text")
	}
}

func TestBenchLines(t *testing.T) {
	rep := &Report{Overall: Bucket{P50Seconds: 0.001, P99Seconds: 0.002, P999Seconds: 0.003}}
	out := rep.BenchLines("ServeOpenLoop")
	for _, want := range []string{
		"BenchmarkServeOpenLoopP50 \t 1 \t 1000000 ns/op",
		"BenchmarkServeOpenLoopP99 \t 1 \t 2000000 ns/op",
		"BenchmarkServeOpenLoopP999 \t 1 \t 3000000 ns/op",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestSaturateBisection drives the search against a synthetic server
// that sustains exactly 100 req/s: twice, asserting the found rate is
// stable run to run (the acceptance criterion for -saturate).
func TestSaturateBisection(t *testing.T) {
	measure := func(rate float64) (*Report, error) {
		p99 := 0.010
		if rate > 100 {
			p99 = 10.0 // saturated: tail blows up
		}
		return &Report{OfferedRate: rate, Requests: 100, Overall: Bucket{P99Seconds: p99}}, nil
	}
	run := func() *SaturationReport {
		rep, err := Saturate(SearchConfig{
			MinRate: 10, MaxRate: 1000, Iters: 8,
			TargetP99: 100 * time.Millisecond, MaxErrors: 0,
			Measure: measure,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.SaturationRate != b.SaturationRate {
		t.Fatalf("saturation rate not stable: %g vs %g", a.SaturationRate, b.SaturationRate)
	}
	if a.SaturationRate < 90 || a.SaturationRate > 100 {
		t.Fatalf("saturation rate %g, want within (90, 100] for a 100 req/s server", a.SaturationRate)
	}
	if len(a.Steps) != 2+8 {
		t.Fatalf("took %d probes, want bracket 2 + iters 8", len(a.Steps))
	}
	if !strings.Contains(a.BenchLine("SLO"), "SaturationInterval") {
		t.Fatal("bench line missing")
	}
	if math.Abs(1e9/a.SaturationRate-10.4e6) > 5e6 {
		// ~96 req/s → ~10.4ms interval; just sanity-check the magnitude.
		t.Logf("saturation interval %.0f ns", 1e9/a.SaturationRate)
	}
}

func TestSaturateBracketEdges(t *testing.T) {
	alwaysFail := func(rate float64) (*Report, error) {
		return &Report{Requests: 10, Overall: Bucket{P99Seconds: 10}}, nil
	}
	rep, err := Saturate(SearchConfig{MinRate: 1, MaxRate: 10, TargetP99: time.Millisecond, MaxErrors: 0, Measure: alwaysFail})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SaturationRate != 0 || len(rep.Steps) != 1 {
		t.Fatalf("failing MinRate should stop after one probe with rate 0: %+v", rep)
	}
	if rep.BenchLine("X") != "" {
		t.Fatal("no bench line for a failed search")
	}

	alwaysPass := func(rate float64) (*Report, error) {
		return &Report{Requests: 10, Overall: Bucket{P99Seconds: 0.001}}, nil
	}
	rep, err = Saturate(SearchConfig{MinRate: 1, MaxRate: 10, TargetP99: time.Second, MaxErrors: 0, Measure: alwaysPass})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SaturationRate != 10 || len(rep.Steps) != 2 {
		t.Fatalf("passing MaxRate should report the bracket top: %+v", rep)
	}

	if _, err := Saturate(SearchConfig{MinRate: 0, MaxRate: 10, Measure: alwaysPass}); err == nil {
		t.Fatal("MinRate 0 should be rejected")
	}
	if _, err := Saturate(SearchConfig{MinRate: 1, MaxRate: 10}); err == nil {
		t.Fatal("missing Measure should be rejected")
	}
	boom := errors.New("boom")
	if _, err := Saturate(SearchConfig{MinRate: 1, MaxRate: 10, Measure: func(float64) (*Report, error) { return nil, boom }}); !errors.Is(err, boom) {
		t.Fatalf("measure error not propagated: %v", err)
	}
}
