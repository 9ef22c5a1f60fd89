package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"topoopt/internal/clientretry"
	"topoopt/internal/serve"
	"topoopt/internal/slo"
)

func TestRequestBodiesDecodeToValidPlanRequests(t *testing.T) {
	bodies, err := requestBodies(loadSpec{
		Model: "bert", Section: "6", Servers: 12, Degree: 4,
		BandwidthGbps: 25, MCMCIters: 30, Rounds: 1, Parallelism: 8, Seeds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(bodies) != 3 {
		t.Fatalf("got %d bodies, want 3", len(bodies))
	}
	for i, b := range bodies {
		var req serve.PlanRequest
		if err := json.Unmarshal(b, &req); err != nil {
			t.Fatalf("body %d does not decode: %v", i, err)
		}
		if _, err := req.Model.Resolve(); err != nil {
			t.Errorf("body %d: model would be rejected: %v", i, err)
		}
		if err := req.Options.Validate(); err != nil {
			t.Errorf("body %d: options would be rejected: %v", i, err)
		}
		if req.Options.Seed != int64(i+1) {
			t.Errorf("body %d: seed %d, want %d", i, req.Options.Seed, i+1)
		}
		if req.Options.LinkBandwidth != 25e9 {
			t.Errorf("body %d: bandwidth %g, want 25e9 (Gbps scaling)", i, req.Options.LinkBandwidth)
		}
		if req.Options.Parallelism != 8 {
			t.Errorf("body %d: parallelism %d not carried onto the wire", i, req.Options.Parallelism)
		}
	}
}

func TestRequestBodiesDistinctSeedsDistinctFingerprints(t *testing.T) {
	bodies, err := requestBodies(loadSpec{
		Model: "dlrm", Servers: 8, Degree: 4, BandwidthGbps: 100,
		MCMCIters: 10, Rounds: 1, Seeds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var a, b serve.PlanRequest
	if err := json.Unmarshal(bodies[0], &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bodies[1], &b); err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("distinct seeds should produce distinct fingerprints (cache-miss traffic)")
	}
}

func TestTallyReportTaxonomy(t *testing.T) {
	ty := newTally()
	ty.add(clientretry.OK, nil)
	ty.add(clientretry.OK, nil)
	ty.add(clientretry.Connect, errors.New("dial tcp: connection refused"))
	ty.add(clientretry.Connect, errors.New("a later connect error"))
	ty.add(clientretry.Exhausted, nil)

	got := ty.report("  ")
	if !strings.Contains(got, "errors[connect]: 2") {
		t.Errorf("report missing connect count:\n%s", got)
	}
	if !strings.Contains(got, "connection refused") {
		t.Errorf("report should carry the first error per class:\n%s", got)
	}
	if strings.Contains(got, "a later connect error") {
		t.Errorf("report should keep only the first error per class:\n%s", got)
	}
	if !strings.Contains(got, "errors[retry-exhausted]: 1") {
		t.Errorf("report missing exhausted count:\n%s", got)
	}
	if strings.Contains(got, "errors[ok]") || strings.Contains(got, "errors[timeout]") {
		t.Errorf("report should omit zero/OK classes:\n%s", got)
	}
}

// classStub is a daemon whose plan answer depends on the request seed:
// answer(seed) gives the delay before replying, the HTTP status and the
// cached flag. Sweep requests always get a computed (uncached) answer.
func classStub(t *testing.T, answer func(seed int64) (time.Duration, int, bool)) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/plan":
			var req serve.PlanRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			delay, status, cached := answer(req.Options.Seed)
			time.Sleep(delay)
			if status != http.StatusOK {
				http.Error(w, "injected failure", status)
				return
			}
			fmt.Fprintf(w, `{"fingerprint":"abc","cached":%t,"plan":{}}`, cached)
		case "/v1/sweep":
			io.WriteString(w, `{"cached":false}`)
		default:
			io.WriteString(w, `{}`)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// classRows runs planload with args against addr and returns the JSON
// report's per-class latency rows.
func classRows(t *testing.T, addr string, args ...string) *slo.Report {
	t.Helper()
	cfg, err := parseFlags(append([]string{"-addr", addr, "-json"}, args...))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code, err := run(cfg, &out); err != nil || code != 0 {
		t.Fatalf("code %d err %v:\n%s", code, err, out.String())
	}
	var rep slo.Report
	if err := json.NewDecoder(&out).Decode(&rep); err != nil {
		t.Fatalf("output is not a JSON report: %v\n%s", err, out.String())
	}
	return &rep
}

// TestLatHistPerClassQuantiles: planload's per-class latency rows time
// each class on its own, and retry-exhausted failures, whose latencies
// span every attempt and backoff sleep, stay out of the overall
// quantiles.
func TestLatHistPerClassQuantiles(t *testing.T) {
	const failDelay = 100 * time.Millisecond
	ts := classStub(t, func(seed int64) (time.Duration, int, bool) {
		if seed == 3 {
			return failDelay, http.StatusServiceUnavailable, false
		}
		return 0, http.StatusOK, false
	})
	rep := classRows(t, ts.URL, "-n", "12", "-c", "2", "-seeds", "3", "-retries", "1", "-backoff", "1ms")

	if len(rep.Classes) != 2 {
		t.Fatalf("got %d class rows, want 2 (one per populated class): %+v", len(rep.Classes), rep.Classes)
	}
	cold, exhausted := rep.Classes[0], rep.Classes[1]
	if cold.Class != "plan/cold" || cold.Count != 8 || cold.Errors != 0 {
		t.Errorf("first row should be the 8 OK cold plans: %+v", cold)
	}
	// Two attempts, each held failDelay by the daemon.
	if exhausted.Class != "plan/retry-exhausted" || exhausted.Count != 4 || exhausted.Errors != 4 ||
		exhausted.P50Seconds < 2*failDelay.Seconds() {
		t.Errorf("exhausted row wrong: %+v", exhausted)
	}
	if rep.Overall.Count != 12 || rep.Overall.Errors != 4 {
		t.Errorf("overall should count every request and failure: %+v", rep.Overall)
	}
	if rep.Overall.P50Seconds != cold.P50Seconds || rep.Overall.MaxSeconds != cold.MaxSeconds {
		t.Errorf("overall quantiles %+v differ from the OK row %+v (retry latencies leaked in?)", rep.Overall, cold)
	}
}

// TestLatHistMultipleEndpointsSorted: class rows are labelled
// endpoint/class, sorted by name, and hold only the classes a run saw —
// a plan run mixing cache hits, warm starts, cold plans and server
// errors, and a sweep run against the same daemon.
func TestLatHistMultipleEndpointsSorted(t *testing.T) {
	ts := classStub(t, func(seed int64) (time.Duration, int, bool) {
		switch seed {
		case 1:
			return 0, http.StatusOK, true
		case 3:
			return 0, http.StatusInternalServerError, false
		}
		return 0, http.StatusOK, false
	})
	type row struct {
		class         string
		count, errors int
	}
	rows := func(rep *slo.Report) []row {
		var got []row
		for _, c := range rep.Classes {
			got = append(got, row{c.Class, c.Count, c.Errors})
		}
		return got
	}

	// Odd indices fire near-miss bodies; even ones cycle seeds 1, 3, 2.
	plan := classRows(t, ts.URL, "-n", "12", "-c", "2", "-seeds", "3", "-warm-mix", "0.5")
	want := []row{{"plan/5xx", 2, 2}, {"plan/cold", 2, 0}, {"plan/exact-hit", 2, 0}, {"plan/warm", 6, 0}}
	if got := rows(plan); !reflect.DeepEqual(got, want) {
		t.Errorf("plan run class rows %+v, want %+v", got, want)
	}
	sweep := classRows(t, ts.URL, "-n", "4", "-c", "2", "-sweep", "2", "-seeds", "2")
	if got, want := rows(sweep), []row{{"sweep/cold", 4, 0}}; !reflect.DeepEqual(got, want) {
		t.Errorf("sweep run class rows %+v, want %+v", got, want)
	}
}

func TestTallyReportEmptyWhenAllOK(t *testing.T) {
	ty := newTally()
	ty.add(clientretry.OK, nil)
	if got := ty.report("  "); got != "" {
		t.Errorf("all-OK run should report nothing, got %q", got)
	}
}

func sloStub(t *testing.T, planJSON string, delay time.Duration) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	hits := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/plan":
			if delay > 0 {
				time.Sleep(delay)
			}
			mu.Lock()
			hits++
			mu.Unlock()
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"fingerprint":"abc","cached":false,"plan":%s}`, planJSON)
		case "/v1/metrics":
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{}`)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestParseFlagsAddrsAndModes(t *testing.T) {
	cfg, err := parseFlags([]string{"-addr", "http://a:1/, http://b:2 ", "-open-loop", "-rate", "50"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://a:1", "http://b:2"}
	if !reflect.DeepEqual(cfg.Addrs, want) {
		t.Fatalf("addrs %v, want %v (trimmed, no trailing slash)", cfg.Addrs, want)
	}
	if !cfg.OpenLoop || cfg.Rate != 50 {
		t.Fatalf("open-loop flags not parsed: %+v", cfg)
	}

	for _, args := range [][]string{
		{"-open-loop"}, // no rate
		{"-open-loop", "-rate", "10", "-saturate"}, // exclusive modes
		{"-saturate", "-rate-min", "0"},            // bad bracket
		{"-saturate", "-rate-min", "10", "-rate-max", "5"},
		{"-verify-identical"},           // needs >= 2 addrs
		{"-addr", "http://a,,http://b"}, // empty entry
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("%v should be rejected", args)
		}
	}
}

func TestRunOpenLoopGate(t *testing.T) {
	ts := sloStub(t, `{"ok":true}`, time.Millisecond)
	base := []string{
		"-addr", ts.URL, "-open-loop", "-rate", "200",
		"-duration", "300ms", "-bucket", "100ms", "-max-errors", "0",
	}
	cfg, err := parseFlags(append(base, "-slo-p99", "2s"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := run(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("passing gate exited %d:\n%s", code, out.String())
	}
	for _, needle := range []string{"open-loop", "p999", "SLO PASS"} {
		if !strings.Contains(out.String(), needle) {
			t.Fatalf("report missing %q:\n%s", needle, out.String())
		}
	}

	// An impossible p99 target must fail the gate and exit nonzero.
	cfg, err = parseFlags(append(base, "-slo-p99", "1ns"))
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	code, err = run(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 || !strings.Contains(out.String(), "SLO FAIL") {
		t.Fatalf("failing gate exited %d:\n%s", code, out.String())
	}
}

func TestRunOpenLoopJSONAndBench(t *testing.T) {
	ts := sloStub(t, `{"ok":true}`, 0)
	cfg, err := parseFlags([]string{
		"-addr", ts.URL, "-open-loop", "-rate", "300", "-duration", "200ms",
		"-json", "-bench", "-bench-prefix", "ServeSLO",
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code, err := run(cfg, &out); err != nil || code != 0 {
		t.Fatalf("code %d err %v:\n%s", code, err, out.String())
	}
	dec := json.NewDecoder(&out)
	var rep slo.Report
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("output is not a JSON report: %v", err)
	}
	if rep.Requests == 0 || rep.OfferedRate != 300 {
		t.Fatalf("report %+v", rep)
	}
	rest, _ := io.ReadAll(dec.Buffered())
	tail, _ := io.ReadAll(&out)
	bench := string(rest) + string(tail)
	for _, needle := range []string{"BenchmarkServeSLOP50", "BenchmarkServeSLOP99", "BenchmarkServeSLOP999"} {
		if !strings.Contains(bench, needle) {
			t.Fatalf("bench lines missing %q:\n%s", needle, bench)
		}
	}
}

func TestRunSaturateFindsBracketTop(t *testing.T) {
	ts := sloStub(t, `{"ok":true}`, 0)
	cfg, err := parseFlags([]string{
		"-addr", ts.URL, "-saturate", "-rate-min", "20", "-rate-max", "40",
		"-duration", "100ms", "-slo-p99", "2s", "-max-errors", "0", "-bench",
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := run(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "saturation: 40.0 req/s") {
		t.Fatalf("fast stub should sustain the bracket top:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "SaturationInterval") {
		t.Fatalf("bench line missing:\n%s", out.String())
	}
}

func TestRunVerifyIdentical(t *testing.T) {
	a := sloStub(t, `{"links":[1,2,3]}`, 0)
	b := sloStub(t, `{"links":[1,2,3]}`, 0)
	cfg, err := parseFlags([]string{"-addr", a.URL + "," + b.URL, "-verify-identical"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code, err := run(cfg, &out); err != nil || code != 0 {
		t.Fatalf("identical daemons: code %d err %v:\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "verify-identical: OK") {
		t.Fatalf("missing OK verdict:\n%s", out.String())
	}

	c := sloStub(t, `{"links":[9,9,9]}`, 0)
	cfg, err = parseFlags([]string{"-addr", a.URL + "," + c.URL, "-verify-identical"})
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	code, err := run(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 || !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("divergent daemons: code %d:\n%s", code, out.String())
	}
}

func TestRunClosedLoopRoundRobinsAddrs(t *testing.T) {
	var hitsA, hitsB atomic.Int64
	mk := func(hits *atomic.Int64) *httptest.Server {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/plan" {
				hits.Add(1)
				fmt.Fprint(w, `{"fingerprint":"abc","cached":false,"plan":{}}`)
				return
			}
			io.WriteString(w, `{}`)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	a, b := mk(&hitsA), mk(&hitsB)
	cfg, err := parseFlags([]string{"-addr", a.URL + "," + b.URL, "-n", "10", "-c", "2"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code, err := run(cfg, &out); err != nil || code != 0 {
		t.Fatalf("code %d err %v:\n%s", code, err, out.String())
	}
	if hitsA.Load() != 5 || hitsB.Load() != 5 {
		t.Fatalf("round-robin split %d/%d, want 5/5", hitsA.Load(), hitsB.Load())
	}
	if !strings.Contains(out.String(), "2 daemon(s)") {
		t.Fatalf("summary missing daemon count:\n%s", out.String())
	}
}

// seedStub is a daemon that records the seed of every plan request it
// receives.
func seedStub(t *testing.T) (*httptest.Server, func() []int64) {
	t.Helper()
	var (
		mu    sync.Mutex
		seeds []int64
	)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/plan" {
			io.WriteString(w, `{}`)
			return
		}
		var req serve.PlanRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		seeds = append(seeds, req.Options.Seed)
		mu.Unlock()
		fmt.Fprint(w, `{"fingerprint":"abc","cached":false,"plan":{}}`)
	}))
	t.Cleanup(ts.Close)
	return ts, func() []int64 {
		mu.Lock()
		defer mu.Unlock()
		return append([]int64(nil), seeds...)
	}
}

// TestRunOpenLoopWarmMix: -warm-mix reaches open-loop runs, which then
// send near-miss bodies from the offset seed population.
func TestRunOpenLoopWarmMix(t *testing.T) {
	ts, seeds := seedStub(t)
	cfg, err := parseFlags([]string{
		"-addr", ts.URL, "-open-loop", "-rate", "200", "-duration", "200ms",
		"-seeds", "4", "-warm-mix", "0.5",
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code, err := run(cfg, &out); err != nil || code != 0 {
		t.Fatalf("code %d err %v:\n%s", code, err, out.String())
	}
	near, base := 0, 0
	for _, s := range seeds() {
		if s > 10000 {
			near++
		} else {
			base++
		}
	}
	if near == 0 || base == 0 {
		t.Fatalf("%d near-miss and %d base requests, want both:\n%s", near, base, out.String())
	}
	for _, class := range []string{"plan/warm", "plan/cold"} {
		if !strings.Contains(out.String(), class) {
			t.Fatalf("report missing class row %q:\n%s", class, out.String())
		}
	}
}

// TestRunClosedLoopWarmMixSendsEveryBody: with a mix that shares a factor
// with the seed count, the closed loop still sends every body of both
// populations.
func TestRunClosedLoopWarmMixSendsEveryBody(t *testing.T) {
	ts, seeds := seedStub(t)
	cfg, err := parseFlags([]string{
		"-addr", ts.URL, "-seeds", "4", "-warm-mix", "0.25", "-n", "32", "-c", "1",
	})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code, err := run(cfg, &out); err != nil || code != 0 {
		t.Fatalf("code %d err %v:\n%s", code, err, out.String())
	}
	sent := map[int64]int{}
	for _, s := range seeds() {
		sent[s]++
	}
	for _, want := range []int64{1, 2, 3, 4, 10001, 10002, 10003, 10004} {
		if sent[want] == 0 {
			t.Errorf("seed %d never sent; sent %v", want, sent)
		}
	}
}

// TestRunClosedLoopGate: the closed loop honours the SLO gate.
func TestRunClosedLoopGate(t *testing.T) {
	ts := sloStub(t, `{"ok":true}`, time.Millisecond)
	cfg, err := parseFlags([]string{"-addr", ts.URL, "-n", "20", "-c", "4", "-slo-p99", "1ns", "-max-errors", "0"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := run(cfg, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 || !strings.Contains(out.String(), "SLO FAIL") {
		t.Fatalf("impossible p99 target exited %d:\n%s", code, out.String())
	}
	for _, needle := range []string{"closed-loop: 4 clients", "overall", "plan/cold", "HTTP 200: 20", "server " + ts.URL} {
		if !strings.Contains(out.String(), needle) {
			t.Fatalf("report missing %q:\n%s", needle, out.String())
		}
	}
}

// TestRunClosedLoopJSON: -json applies to the closed loop, whose report
// carries the worker count and request total.
func TestRunClosedLoopJSON(t *testing.T) {
	ts := sloStub(t, `{"ok":true}`, 0)
	cfg, err := parseFlags([]string{"-addr", ts.URL, "-n", "12", "-c", "3", "-json", "-bench"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code, err := run(cfg, &out); err != nil || code != 0 {
		t.Fatalf("code %d err %v:\n%s", code, err, out.String())
	}
	dec := json.NewDecoder(&out)
	var rep slo.Report
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("output is not a JSON report: %v\n%s", err, out.String())
	}
	if rep.Clients != 3 || rep.Requests != 12 || rep.Errors != 0 {
		t.Fatalf("report clients=%d requests=%d errors=%d, want 3, 12, 0", rep.Clients, rep.Requests, rep.Errors)
	}
	if len(rep.Classes) != 1 || rep.Classes[0].Class != "plan/cold" || rep.Classes[0].Count != 12 {
		t.Fatalf("classes %+v, want one plan/cold row of 12", rep.Classes)
	}
	rest, _ := io.ReadAll(io.MultiReader(dec.Buffered(), &out))
	if !strings.Contains(string(rest), "BenchmarkServeSLOP99") {
		t.Fatalf("bench lines missing after the JSON report:\n%s", rest)
	}
}
