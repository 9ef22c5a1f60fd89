package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"topoopt"
)

func testRequest(seed int64) PlanRequest {
	return PlanRequest{
		Model: topoopt.ModelSpec{Preset: "bert", Section: "6"},
		Options: topoopt.Options{Servers: 12, Degree: 4, LinkBandwidth: 25e9,
			Rounds: 1, MCMCIters: 10, Seed: seed},
	}
}

// tinyPlan builds one small real plan to serve from stubs.
var tinyPlanOnce sync.Once
var tinyPlan *topoopt.Plan

func stubPlan(t testing.TB) *topoopt.Plan {
	tinyPlanOnce.Do(func() {
		m := topoopt.BERT(topoopt.Sec6)
		p, err := topoopt.Optimize(m, topoopt.Options{Servers: 4, Degree: 2,
			LinkBandwidth: 25e9, Rounds: 1, MCMCIters: 5, Seed: 1})
		if err != nil {
			t.Fatalf("building stub plan: %v", err)
		}
		tinyPlan = p
	})
	return tinyPlan
}

func TestFingerprintDeterministicAndSeedSensitive(t *testing.T) {
	a, b := testRequest(1), testRequest(1)
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("identical requests must fingerprint identically")
	}
	if a.Fingerprint() == testRequest(2).Fingerprint() {
		t.Error("the seed must be part of the fingerprint")
	}
	c := testRequest(1)
	c.Options.Degree++
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("options must be part of the fingerprint")
	}
	// Spelling variants of the same workload must share one cache entry.
	d := testRequest(1)
	d.Model = topoopt.ModelSpec{Preset: "BERT", Section: "6"}
	if a.Fingerprint() != d.Fingerprint() {
		t.Error("preset case must not change the fingerprint")
	}
	e := PlanRequest{Model: topoopt.ModelSpec{Preset: "dlrm"}, Options: a.Options}
	f := PlanRequest{Model: topoopt.ModelSpec{Preset: "dlrm", Section: "5.3"}, Options: a.Options}
	if e.Fingerprint() != f.Fingerprint() {
		t.Error("implicit and explicit default section must fingerprint identically")
	}
	// Omitted option fields and their explicit defaults describe the same
	// computation and must share a cache entry.
	implicit := PlanRequest{Model: topoopt.ModelSpec{Preset: "dlrm"},
		Options: topoopt.Options{Servers: 12, Degree: 4, LinkBandwidth: 25e9}}
	explicit := implicit
	explicit.Options.Rounds = 3
	explicit.Options.MCMCIters = 200
	explicit.Options.GPU = topoopt.A100
	if implicit.Fingerprint() != explicit.Fingerprint() {
		t.Error("default option values must fingerprint like omitted ones")
	}
}

// TestFingerprintsGolden pins the exact digests of one fixed request of
// every shape. Fingerprints are WAL keys and cluster ring positions, so
// a changed byte orphans every stored result and re-shards the cluster;
// a change here must be deliberate.
func TestFingerprintsGolden(t *testing.T) {
	plan := PlanRequest{
		Model: topoopt.ModelSpec{Preset: "dlrm", Section: "5.3"},
		Options: topoopt.Options{Servers: 16, Degree: 4, LinkBandwidth: 100e9,
			Rounds: 2, MCMCIters: 50, Seed: 7, Parallelism: 2},
	}
	cmpSpec := topoopt.ModelSpec{Preset: "bert"}
	cmpOpts := topoopt.Options{Servers: 128, Degree: 4, LinkBandwidth: 25e9, Seed: 1}
	fleet := topoopt.FleetSpec{
		Servers: 8, Degree: 1, LinkBandwidth: 1e9,
		Arch: "Fat-tree", Policy: "fifo", Provisioning: "ocs", Seed: 3,
		Trace: topoopt.FleetTraceSpec{Inline: []topoopt.FleetJobSpec{
			{AtS: 0, Workers: 4, FixedDurationS: 50},
			{AtS: 1, Workers: 8, FixedDurationS: 20},
		}},
	}
	for _, c := range []struct{ name, got, want string }{
		{"plan", plan.Fingerprint(),
			"dcb3699a9433ff8f84c77fbc9e1b060508d65b429507d5f47080e3d47160439b"},
		{"compare", CompareFingerprint(cmpSpec, cmpOpts, []topoopt.Architecture{topoopt.ArchTorus, topoopt.ArchSiPRing}),
			"6fa50bbbf3f4cd534db3bec8ffb89124c0b9679b5c8b898d7df3446b312e1cc5"},
		{"compare all archs", CompareFingerprint(cmpSpec, cmpOpts, nil),
			"4c4422177ad95a5e4ee2410085e5401dd679968bd5c8a69e870ef04169dd81fe"},
		{"fleet", FleetFingerprint(fleet),
			"cea2a029ce70cb810a6e974995593b0cead95fe424e927f2da556701b22d5622"},
		{"sweep", SweepFingerprint(fleet, 16),
			"7062ece8b637fdfbb5e01aa145151b755f6626adc0c26fe7c70ac33e59943554"},
	} {
		if c.got != c.want {
			t.Errorf("%s fingerprint = %s, want %s", c.name, c.got, c.want)
		}
	}
}

// TestCoalescingSingleOptimize is the tentpole acceptance check: N
// concurrent identical requests trigger exactly one optimization.
func TestCoalescingSingleOptimize(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 16)
	release := make(chan struct{})
	plan := stubPlan(t)
	s := New(Config{Workers: 4, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
		calls.Add(1)
		started <- struct{}{}
		<-release
		return plan, nil
	}})
	defer s.Close()

	const n = 8
	var wg sync.WaitGroup
	results := make([]*topoopt.Plan, n)
	errs := make([]error, n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _, _, errs[0] = s.Plan(context.Background(), testRequest(1))
	}()
	<-started // the flight is registered before its optimizer runs
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, _, errs[i] = s.Plan(context.Background(), testRequest(1))
		}(i)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests made %d optimize calls, want exactly 1", n, got)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i] != plan {
			t.Fatalf("request %d got a different plan", i)
		}
	}
	m := s.Metrics()
	if m.CacheMisses != 1 {
		t.Errorf("cache misses = %d, want 1", m.CacheMisses)
	}
	if m.Coalesced+m.CacheHits != n-1 {
		t.Errorf("coalesced %d + late cache hits %d, want %d combined",
			m.Coalesced, m.CacheHits, n-1)
	}
}

func TestCacheHitAndLRUEviction(t *testing.T) {
	var calls atomic.Int64
	plan := stubPlan(t)
	s := New(Config{Workers: 2, CacheEntries: 1, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
		calls.Add(1)
		return plan, nil
	}})
	defer s.Close()
	ctx := context.Background()

	if _, _, cached, err := s.Plan(ctx, testRequest(1)); err != nil || cached {
		t.Fatalf("first request: cached=%v err=%v", cached, err)
	}
	if _, _, cached, err := s.Plan(ctx, testRequest(1)); err != nil || !cached {
		t.Fatalf("repeat request should hit the cache: cached=%v err=%v", cached, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("optimize calls = %d, want 1 (second served from cache)", calls.Load())
	}
	if _, _, _, err := s.Plan(ctx, testRequest(2)); err != nil {
		t.Fatal(err)
	}
	// Seed 1 was evicted by seed 2 in the single-entry cache.
	if _, _, cached, err := s.Plan(ctx, testRequest(1)); err != nil || cached {
		t.Fatalf("evicted entry must be recomputed: cached=%v err=%v", cached, err)
	}
	if calls.Load() != 3 {
		t.Fatalf("optimize calls = %d, want 3 after eviction", calls.Load())
	}
}

// TestClientCancellationAbortsFlight: when every waiter gives up, the
// optimization's context is cancelled; a later identical request starts a
// fresh, functional flight.
func TestClientCancellationAbortsFlight(t *testing.T) {
	var calls atomic.Int64
	started := make(chan struct{}, 4)
	aborted := make(chan struct{}, 4)
	plan := stubPlan(t)
	s := New(Config{Workers: 2, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
		calls.Add(1)
		started <- struct{}{}
		select {
		case <-ctx.Done():
			aborted <- struct{}{}
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return plan, nil
		}
	}})
	defer s.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, _, err := s.Plan(ctx, testRequest(1))
		errCh <- err
	}()
	<-started
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	select {
	case <-aborted:
	case <-time.After(5 * time.Second):
		t.Fatal("abandoning the last waiter did not cancel the optimization")
	}

	// The fingerprint is free again: a new request succeeds on a new flight.
	s2 := make(chan error, 1)
	go func() {
		p, _, _, err := s.Plan(context.Background(), testRequest(1))
		if err == nil && p != plan {
			err = errors.New("wrong plan")
		}
		s2 <- err
	}()
	<-started
	// Second flight is live; let it finish by cancelling nothing — it waits
	// on the timer, so cut it short via service shutdown? No: just verify
	// it is a distinct optimize call and complete it through ctx.
	if calls.Load() != 2 {
		t.Fatalf("optimize calls = %d, want 2 (fresh flight after abandonment)", calls.Load())
	}
	s.Close()
	if err := <-s2; err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, context.Canceled) {
		t.Fatalf("second flight: %v", err)
	}
}

func TestQueueFullRejects(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	plan := stubPlan(t)
	s := New(Config{Workers: 1, QueueLen: 1, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
		started <- struct{}{}
		select {
		case <-release:
			return plan, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	defer s.Close()

	done := make(chan error, 2)
	go func() { _, _, _, err := s.Plan(context.Background(), testRequest(1)); done <- err }()
	<-started // the single worker is now busy; the queue is empty
	go func() { _, _, _, err := s.Plan(context.Background(), testRequest(2)); done <- err }()
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never filled the queue")
		}
		time.Sleep(time.Millisecond)
	}
	// Worker busy + queue full: a third distinct request must be rejected.
	_, _, _, err := s.Plan(context.Background(), testRequest(3))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if s.Metrics().QueueFull == 0 {
		t.Error("queue_full counter not incremented")
	}
	// Job submission must see the same synchronous backpressure (a 503
	// at the HTTP layer), not a 202 that later fails asynchronously.
	if _, err := s.SubmitJob(testRequest(4)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("SubmitJob err = %v, want ErrQueueFull", err)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestHTTPPlanValidation(t *testing.T) {
	var calls atomic.Int64
	plan := stubPlan(t)
	s := New(Config{Workers: 2, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
		calls.Add(1)
		return plan, nil
	}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	good := `{"model":{"preset":"bert","section":"6"},"options":{"servers":12,"degree":4,"link_bandwidth":25e9,"mcmc_iters":10,"rounds":1,"seed":1}}`
	cases := []struct {
		name       string
		body       string
		wantCode   int
		wantErr    string // error.code, "" for success
		wantDetail string // error.detail field group
	}{
		{"valid", good, http.StatusOK, "", ""},
		{"malformed json", `{"model":`, http.StatusBadRequest, "bad_request", "body"},
		{"unknown field", `{"model":{"preset":"bert"},"options":{"servers":12,"degree":4,"link_bandwidth":25e9},"fanciness":11}`, http.StatusBadRequest, "bad_request", "body"},
		{"unknown preset", `{"model":{"preset":"gpt5"},"options":{"servers":12,"degree":4,"link_bandwidth":25e9}}`, http.StatusBadRequest, "bad_request", "model"},
		{"bad section", `{"model":{"preset":"bert","section":"9.9"},"options":{"servers":12,"degree":4,"link_bandwidth":25e9}}`, http.StatusBadRequest, "bad_request", "model"},
		{"servers too small", `{"model":{"preset":"bert"},"options":{"servers":1,"degree":4,"link_bandwidth":25e9}}`, http.StatusBadRequest, "bad_request", "options"},
		{"degree too small", `{"model":{"preset":"bert"},"options":{"servers":12,"degree":0,"link_bandwidth":25e9}}`, http.StatusBadRequest, "bad_request", "options"},
		{"no bandwidth", `{"model":{"preset":"bert"},"options":{"servers":12,"degree":4}}`, http.StatusBadRequest, "bad_request", "options"},
		{"gpu without mem_bandwidth", `{"model":{"preset":"bert"},"options":{"servers":12,"degree":4,"link_bandwidth":25e9,"gpu":{"peak_flops":1e12}}}`, http.StatusBadRequest, "bad_request", "options"},
		{"negative peak_flops", `{"model":{"preset":"bert"},"options":{"servers":12,"degree":4,"link_bandwidth":25e9,"gpu":{"peak_flops":-1e12,"mem_bandwidth":1e12}}}`, http.StatusBadRequest, "bad_request", "options"},
		{"negative options batch", `{"model":{"preset":"bert"},"options":{"servers":12,"degree":4,"link_bandwidth":25e9,"batch_per_gpu":-8}}`, http.StatusBadRequest, "bad_request", "options"},
		{"negative model batch", `{"model":{"preset":"bert","batch_per_gpu":-8},"options":{"servers":12,"degree":4,"link_bandwidth":25e9}}`, http.StatusBadRequest, "bad_request", "model"},
		{"negative vgg_depth", `{"model":{"preset":"vgg16","vgg_depth":-1},"options":{"servers":12,"degree":4,"link_bandwidth":25e9}}`, http.StatusBadRequest, "bad_request", "model"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/plan", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.wantCode)
			}
			if tc.wantErr == "" {
				var pr PlanResponse
				if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
					t.Fatal(err)
				}
				if pr.Plan == nil || pr.Fingerprint == "" {
					t.Error("success response missing plan or fingerprint")
				}
				return
			}
			var env struct {
				Error apiError `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatal(err)
			}
			if env.Error.Code != tc.wantErr {
				t.Errorf("error code = %q, want %q (message %q)",
					env.Error.Code, tc.wantErr, env.Error.Message)
			}
			if env.Error.Detail != tc.wantDetail {
				t.Errorf("error detail = %q, want %q", env.Error.Detail, tc.wantDetail)
			}
		})
	}
	if calls.Load() != 1 {
		t.Errorf("invalid requests must not reach the optimizer (calls = %d)", calls.Load())
	}
}

func TestHTTPCompareAndCost(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"model":{"preset":"candle","section":"6"},"options":{"servers":4,"degree":2,"link_bandwidth":100e9,"mcmc_iters":5,"rounds":1,"seed":3},"archs":["IdealSwitch","Fat-tree"]}`
	resp, err := http.Post(ts.URL+"/v1/compare", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compare status = %d", resp.StatusCode)
	}
	var cr CompareResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Results) != 2 {
		t.Fatalf("compare results = %d, want 2", len(cr.Results))
	}
	for _, r := range cr.Results {
		if r.Iteration.Total() <= 0 || r.CostUSD <= 0 {
			t.Errorf("%s: iteration %v cost %v", r.Arch, r.Iteration.Total(), r.CostUSD)
		}
	}

	bad, err := http.Post(ts.URL+"/v1/compare", "application/json",
		strings.NewReader(`{"model":{"preset":"candle","section":"6"},"options":{"servers":4,"degree":2,"link_bandwidth":1e9},"archs":["warpdrive"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown arch status = %d, want 400", bad.StatusCode)
	}

	cost, err := http.Get(ts.URL + "/v1/cost?arch=TopoOpt&servers=128&degree=4&bandwidth_gbps=100")
	if err != nil {
		t.Fatal(err)
	}
	defer cost.Body.Close()
	var cres CostResponse
	if err := json.NewDecoder(cost.Body).Decode(&cres); err != nil {
		t.Fatal(err)
	}
	if cres.CostUSD <= 0 {
		t.Errorf("cost = %v, want > 0", cres.CostUSD)
	}

	// Out-of-bounds parameters get the same 400 treatment as /v1/plan.
	for _, q := range []string{
		"arch=TopoOpt&servers=-5&degree=4&bandwidth_gbps=100",
		"arch=TopoOpt&servers=128&degree=0&bandwidth_gbps=100",
		"arch=TopoOpt&servers=128&degree=4&bandwidth_gbps=0",
	} {
		r, err := http.Get(ts.URL + "/v1/cost?" + q)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("cost?%s → %d, want 400", q, r.StatusCode)
		}
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	plan := stubPlan(t)
	s := New(Config{Workers: 2, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
		return plan, nil
	}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(testRequest(1))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var j Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || j.ID == "" {
		t.Fatalf("submit: status %d, job %+v", resp.StatusCode, j)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + j.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got Job
		if err := json.NewDecoder(r.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if got.Status == JobDone {
			if got.Kind != kindPlan || got.Result == nil || got.FinishedAt == nil {
				t.Fatalf("done job missing kind/result/finish time: %+v", got)
			}
			break
		}
		if got.Status == JobFailed || got.Status == JobCancelled {
			t.Fatalf("job ended %s: %s", got.Status, got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}

	r, err := http.Get(ts.URL + "/v1/jobs/j99999999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", r.StatusCode)
	}
}

func TestAsyncJobCancellation(t *testing.T) {
	started := make(chan struct{}, 4)
	s := New(Config{Workers: 2, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(testRequest(7))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var j Job
	json.NewDecoder(resp.Body).Decode(&j)
	resp.Body.Close()
	<-started
	// The optimizer has been dequeued, so the job must now be observable
	// as running (it was "queued" until a worker picked it up).
	deadline0 := time.Now().Add(5 * time.Second)
	for {
		got, ok := s.GetJob(j.ID)
		if ok && got.Status == JobRunning {
			break
		}
		if time.Now().After(deadline0) {
			t.Fatalf("job never became running (status %v)", got.Status)
		}
		time.Sleep(time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", dr.StatusCode)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		got, ok := s.GetJob(j.ID)
		if !ok {
			t.Fatal("job vanished")
		}
		if got.Status == JobCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s after cancel", got.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	plan := stubPlan(t)
	s := New(Config{Workers: 2, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
		return plan, nil
	}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(testRequest(1))
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Requests["plan"] != 3 {
		t.Errorf("plan requests = %d, want 3", m.Requests["plan"])
	}
	if m.CacheMisses != 1 || m.CacheHits != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/1", m.CacheHits, m.CacheMisses)
	}
	if m.Latency.Count != 3 || m.Latency.P99Seconds < m.Latency.P50Seconds {
		t.Errorf("latency summary inconsistent: %+v", m.Latency)
	}
	if m.QueueCapacity == 0 {
		t.Error("queue capacity missing")
	}
}

// TestEndToEndRealOptimizer drives the full stack once — HTTP → service →
// topoopt.OptimizeContext → flexnet → netsim — and checks the returned
// plan round-trips through the wire format.
func TestEndToEndRealOptimizer(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(testRequest(1))
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var pr PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Plan == nil || pr.Plan.PredictedIteration.Total() <= 0 {
		t.Fatalf("no usable plan in response: %+v", pr.Plan)
	}
	if len(pr.Plan.Circuits) == 0 || len(pr.Plan.Routes) == 0 {
		t.Error("plan lost circuits or routes over the wire")
	}
	if fmt.Sprint(pr.Fingerprint) == "" {
		t.Error("missing fingerprint")
	}
}

// TestUnknownArchStructured400 table-tests the registry validation on
// both architecture-accepting endpoints: unknown names must produce a
// structured 400 whose message lists the registered backends, never an
// opaque 500.
func TestUnknownArchStructured400(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	do := func(method, url, body string) (int, string, string) {
		t.Helper()
		var (
			resp *http.Response
			err  error
		)
		if method == http.MethodPost {
			resp, err = http.Post(url, "application/json", strings.NewReader(body))
		} else {
			resp, err = http.Get(url)
		}
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env struct {
			Error struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, env.Error.Code, env.Error.Message
	}

	compareBody := func(arch string) string {
		return fmt.Sprintf(`{"model":{"preset":"candle","section":"6"},"options":{"servers":4,"degree":2,"link_bandwidth":1e9},"archs":[%q]}`, arch)
	}
	cases := []struct {
		name     string
		method   string
		url      string
		body     string
		wantCode string
	}{
		{"compare bogus", http.MethodPost, ts.URL + "/v1/compare", compareBody("warpdrive"), "unknown_arch"},
		{"compare empty name", http.MethodPost, ts.URL + "/v1/compare", compareBody(""), "unknown_arch"},
		{"compare case sensitive", http.MethodPost, ts.URL + "/v1/compare", compareBody("topoopt"), "unknown_arch"},
		{"cost bogus", http.MethodGet, ts.URL + "/v1/cost?arch=warpdrive&servers=16&degree=4&bandwidth_gbps=100", "", "unknown_arch"},
		{"cost case sensitive", http.MethodGet, ts.URL + "/v1/cost?arch=fat-tree&servers=16&degree=4&bandwidth_gbps=100", "", "unknown_arch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, code, msg := do(tc.method, tc.url, tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", status)
			}
			if code != tc.wantCode {
				t.Errorf("error code = %q, want %q", code, tc.wantCode)
			}
			// The structured error must hand the client the registry menu.
			for _, a := range topoopt.Architectures() {
				if !strings.Contains(msg, string(a)) {
					t.Errorf("message %q does not list registered arch %s", msg, a)
				}
			}
		})
	}
}

// TestCompareNewBackendsEndToEnd drives the two registry additions
// through POST /v1/compare and pins their output across requests: the
// second identical request must be a cache hit with identical results.
func TestCompareNewBackendsEndToEnd(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"model":{"preset":"candle","section":"6"},"options":{"servers":9,"degree":4,"link_bandwidth":100e9,"mcmc_iters":5,"rounds":1,"seed":3},"archs":["Torus","SiP-Ring"]}`
	post := func() CompareResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/compare", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		var cr CompareResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			t.Fatal(err)
		}
		return cr
	}

	first := post()
	if len(first.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(first.Results))
	}
	if first.Cached {
		t.Error("first comparison cannot be a cache hit")
	}
	for i, want := range []topoopt.Architecture{topoopt.ArchTorus, topoopt.ArchSiPRing} {
		r := first.Results[i]
		if r.Arch != want {
			t.Errorf("result %d arch = %s, want %s", i, r.Arch, want)
		}
		if r.Iteration.Total() <= 0 || r.CostUSD <= 0 {
			t.Errorf("%s: iteration %v cost %v", r.Arch, r.Iteration.Total(), r.CostUSD)
		}
	}

	second := post()
	if !second.Cached {
		t.Error("identical comparison must hit the cache")
	}
	if second.Fingerprint != first.Fingerprint {
		t.Errorf("fingerprints differ: %s vs %s", second.Fingerprint, first.Fingerprint)
	}
	a, _ := json.Marshal(first.Results)
	b, _ := json.Marshal(second.Results)
	if !bytes.Equal(a, b) {
		t.Errorf("cached results differ:\n%s\n%s", a, b)
	}
}

func TestCompareFingerprintSemantics(t *testing.T) {
	spec := topoopt.ModelSpec{Preset: "bert", Section: "6"}
	o := topoopt.Options{Servers: 8, Degree: 2, LinkBandwidth: 100e9, Seed: 1}

	// Implicit "all architectures" and the explicit full list are one
	// computation and must share a fingerprint.
	if CompareFingerprint(spec, o, nil) != CompareFingerprint(spec, o, topoopt.Architectures()) {
		t.Error("nil archs must canonicalize to the full registry sweep")
	}
	// Arch selection and order are part of the result, hence of the key.
	one := CompareFingerprint(spec, o, []topoopt.Architecture{topoopt.ArchTorus})
	other := CompareFingerprint(spec, o, []topoopt.Architecture{topoopt.ArchSiPRing})
	if one == other {
		t.Error("different arch selections must not alias")
	}
	ab := CompareFingerprint(spec, o, []topoopt.Architecture{topoopt.ArchTorus, topoopt.ArchSiPRing})
	ba := CompareFingerprint(spec, o, []topoopt.Architecture{topoopt.ArchSiPRing, topoopt.ArchTorus})
	if ab == ba {
		t.Error("arch order changes the result order and must change the key")
	}
	// Seeds distinguish fingerprints exactly as for plans.
	o2 := o
	o2.Seed = 2
	if CompareFingerprint(spec, o, nil) == CompareFingerprint(spec, o2, nil) {
		t.Error("seed must be part of the comparison fingerprint")
	}
}

// TestCompareCoalescing: N concurrent identical comparisons — the most
// expensive request type — must share one execution, with late arrivals
// joining the in-flight sweep instead of occupying workers.
func TestCompareCoalescing(t *testing.T) {
	s := New(Config{Workers: 2})
	defer s.Close()

	spec := topoopt.ModelSpec{Preset: "candle", Section: "6"}
	m, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	o := topoopt.Options{Servers: 8, Degree: 2, LinkBandwidth: 100e9,
		Rounds: 1, MCMCIters: 10, Seed: 3}
	archs := []topoopt.Architecture{topoopt.ArchTorus, topoopt.ArchSiPRing}

	const clients = 6
	var wg sync.WaitGroup
	results := make([][]topoopt.CompareResult, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, _, _, err := s.Compare(context.Background(), spec, m, o, archs)
			results[i], errs[i] = res, err
		}(i)
	}
	wg.Wait()

	base, _ := json.Marshal(results[0])
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		got, _ := json.Marshal(results[i])
		if !bytes.Equal(base, got) {
			t.Errorf("client %d diverged:\n%s\n%s", i, base, got)
		}
	}
	snap := s.Metrics()
	// One miss ran the sweep; every other client either coalesced onto it
	// or (having arrived after it finished) hit the cache.
	if snap.Coalesced+snap.CacheHits != clients-1 {
		t.Errorf("coalesced %d + cache hits %d, want %d shared clients",
			snap.Coalesced, snap.CacheHits, clients-1)
	}
	if snap.InFlight != 0 {
		t.Errorf("in-flight = %d after completion, want 0", snap.InFlight)
	}
	if snap.Optimizations != 1 {
		t.Errorf("optimizations = %d, want 1 completed comparison", snap.Optimizations)
	}
}

// TestCompareAbandonedByAllWaitersCancels: when every client waiting on
// a comparison leaves, the sweep must be cancelled and unregistered so a
// later identical request starts fresh. The single worker is parked on a
// gated stub plan, so the comparison deterministically sits in the queue
// while its only waiter abandons it.
func TestCompareAbandonedByAllWaitersCancels(t *testing.T) {
	release := make(chan struct{})
	s := New(Config{Workers: 1, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
		select {
		case <-release:
			return stubPlan(t), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})
	defer s.Close()

	// Occupy the worker: the plan task must be queued first so the FIFO
	// worker picks it up and blocks before the comparison is enqueued.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.Plan(context.Background(), testRequest(1))
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().InFlight < 1 {
		if time.Now().After(deadline) {
			t.Fatal("plan never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	spec := topoopt.ModelSpec{Preset: "bert", Section: "6"}
	m, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	o := topoopt.Options{Servers: 12, Degree: 4, LinkBandwidth: 25e9,
		Rounds: 1, MCMCIters: 10, Seed: 1}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, _, cerr := s.Compare(ctx, spec, m, o, []topoopt.Architecture{topoopt.ArchTopoOpt})
		done <- cerr
	}()
	// Wait for the comparison flight to register, then abandon it.
	deadline = time.Now().Add(5 * time.Second)
	for s.Metrics().InFlight < 2 {
		if time.Now().After(deadline) {
			t.Fatal("comparison never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case cerr := <-done:
		if !errors.Is(cerr, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", cerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned comparison did not return")
	}
	// Unblock the worker; the dead comparison task must finish without
	// running a sweep, leaving nothing registered.
	close(release)
	wg.Wait()
	deadline = time.Now().Add(5 * time.Second)
	for s.Metrics().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned comparison still registered")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
