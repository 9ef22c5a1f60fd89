package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"topoopt"
	"topoopt/internal/telemetry"
)

// postPlan sends one POST /v1/plan and returns the response.
func tracePlan(t *testing.T, ts *httptest.Server, req PlanRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/plan: %v", err)
	}
	return resp
}

func getDebugRequests(t *testing.T, ts *httptest.Server) []telemetry.Record {
	t.Helper()
	resp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatalf("GET /debug/requests: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/requests: status %d", resp.StatusCode)
	}
	var dr DebugRequests
	if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
		t.Fatalf("decoding /debug/requests: %v", err)
	}
	return dr.Requests
}

func TestPlanTraceEndToEnd(t *testing.T) {
	// A deliberately slow stub makes the search stage dominate, so the
	// stage sum vs. wall time comparison is insensitive to scheduler
	// jitter in the sub-millisecond stages.
	s := New(Config{Workers: 2, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
		time.Sleep(30 * time.Millisecond)
		return stubPlan(t), nil
	}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	miss := tracePlan(t, ts, testRequest(1))
	miss.Body.Close()
	if miss.StatusCode != http.StatusOK {
		t.Fatalf("miss status = %d", miss.StatusCode)
	}
	xt := miss.Header.Get("X-Trace")
	if !strings.HasPrefix(xt, "total=") || !strings.Contains(xt, "search=") {
		t.Errorf("miss X-Trace = %q, want total=... with a search stage", xt)
	}

	hit := tracePlan(t, ts, testRequest(1))
	hit.Body.Close()
	if xt := hit.Header.Get("X-Trace"); !strings.HasPrefix(xt, "total=") {
		t.Errorf("hit X-Trace = %q, want total=...", xt)
	}
	if strings.Contains(hit.Header.Get("X-Trace"), "search=") {
		t.Errorf("cache hit should have no search stage: %q", hit.Header.Get("X-Trace"))
	}

	recs := getDebugRequests(t, ts)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	// Newest first: the hit, then the miss.
	if !recs[0].Cached || recs[1].Cached {
		t.Fatalf("record order/cached flags wrong: %+v", recs)
	}
	m := recs[1]
	if m.Endpoint != "plan" || m.Status != http.StatusOK {
		t.Errorf("miss record endpoint/status = %q/%d", m.Endpoint, m.Status)
	}
	if m.StageSumSeconds > m.TotalSeconds {
		t.Errorf("stage sum %.6fs exceeds total %.6fs", m.StageSumSeconds, m.TotalSeconds)
	}
	// The stages must account for nearly all of the wall time (the 5%%
	// acceptance bound, relaxed to 20%% here to keep CI deterministic —
	// the untraced gaps are scheduler handoffs, not missing stages).
	if m.StageSumSeconds < 0.8*m.TotalSeconds {
		t.Errorf("stage sum %.6fs < 80%% of total %.6fs", m.StageSumSeconds, m.TotalSeconds)
	}
	found := false
	for _, sp := range m.Stages {
		if sp.Stage == "search" && sp.Seconds >= 0.025 {
			found = true
		}
	}
	if !found {
		t.Errorf("miss record lacks a ≥25ms search stage: %+v", m.Stages)
	}

	// Stage quantiles surfaced in the JSON metrics snapshot.
	snap := s.Metrics()
	if snap.Stages["search"].Count == 0 {
		t.Error("metrics snapshot has no search-stage observations")
	}
	if snap.Stages["decode"].Count == 0 {
		t.Error("metrics snapshot has no decode-stage observations")
	}
}

// TestTraceWaitClipsPersist: the WAL append between a flight's search
// and its release books as persist, clipped to each waiter's own window
// like queue and search — a joiner that arrived mid-append claims only
// the rest of the append and no search at all.
func TestTraceWaitClipsPersist(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	ms := time.Millisecond
	t0 := time.Now().Add(-time.Second)
	f := &flight{enqueued: t0, startedAt: t0.Add(ms), searchedAt: t0.Add(3 * ms), finishedAt: t0.Add(6 * ms)}
	stages := func(joined time.Time) map[string]float64 {
		tr := s.tel.Begin("plan")
		s.traceWait(tr, f, joined)
		tr.Finish("", false, http.StatusOK)
		got := map[string]float64{}
		for _, sp := range s.tel.Requests()[0].Stages {
			got[sp.Stage] = sp.Seconds
		}
		return got
	}
	if got, want := stages(t0), map[string]float64{"queue": 1e-3, "search": 2e-3, "persist": 3e-3}; !equalStages(got, want) {
		t.Errorf("creator stages = %v, want %v", got, want)
	}
	if got, want := stages(t0.Add(4*ms)), map[string]float64{"persist": 2e-3}; !equalStages(got, want) {
		t.Errorf("mid-append joiner stages = %v, want %v", got, want)
	}
}

func equalStages(got, want map[string]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			return false
		}
	}
	return true
}

// TestPersistStageOnlyWithStore: a miss on a stored daemon answers only
// once its result is on the log, and the append shows as that request's
// persist stage; a daemon without a store never shows one.
func TestPersistStageOnlyWithStore(t *testing.T) {
	for _, stored := range []bool{false, true} {
		var store *Store
		if stored {
			var err error
			if store, err = OpenStore(t.TempDir()); err != nil {
				t.Fatal(err)
			}
		}
		s := New(Config{Workers: 1, Store: store, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
			return stubPlan(t), nil
		}})
		ts := httptest.NewServer(s.Handler())
		resp := tracePlan(t, ts, testRequest(1))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stored=%v: status %d", stored, resp.StatusCode)
		}
		if stored && store.Len() != 1 {
			t.Errorf("store holds %d entries when the response arrived, want 1", store.Len())
		}
		if got := strings.Contains(resp.Header.Get("X-Trace"), ";persist="); got != stored {
			t.Errorf("stored=%v: X-Trace %q persist stage present = %v", stored, resp.Header.Get("X-Trace"), got)
		}
		if _, got := s.Metrics().Stages["persist"]; got != stored {
			t.Errorf("stored=%v: persist stage summary present = %v", stored, got)
		}
		ts.Close()
		s.Close()
	}
}

func TestSearchProgressReported(t *testing.T) {
	// Real optimizer (default Optimize) so the MCMC epoch barriers feed
	// the flight's progress sink and the daemon-wide proposal counter.
	// DLRM has shardable layers (BERT does not, and a shard-free search
	// resolves before the first barrier); 60 iterations crosses the
	// 25-proposal epoch barrier at least twice.
	s := New(Config{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := PlanRequest{
		Model: topoopt.ModelSpec{Preset: "dlrm", Section: "6"},
		Options: topoopt.Options{Servers: 4, Degree: 2, LinkBandwidth: 25e9,
			Rounds: 1, MCMCIters: 60, Seed: 7},
	}
	resp := tracePlan(t, ts, req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan status = %d", resp.StatusCode)
	}
	recs := getDebugRequests(t, ts)
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	if recs[0].SearchTotal != 60 {
		t.Errorf("SearchTotal = %d, want 60", recs[0].SearchTotal)
	}
	if recs[0].SearchDone <= 0 || recs[0].SearchDone > 60 {
		t.Errorf("SearchDone = %d, want in (0, 60]", recs[0].SearchDone)
	}
	if snap := s.Metrics(); snap.MCMCProposals <= 0 {
		t.Errorf("MCMCProposals = %d, want > 0", snap.MCMCProposals)
	}
}

// promLine matches a valid exposition sample line (metric, optional
// labels, value). Comment lines are checked separately.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9+.eE-]+$`)

func TestPromMetricsEndpoint(t *testing.T) {
	s := New(Config{Workers: 1, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
		return stubPlan(t), nil
	}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp := tracePlan(t, ts, testRequest(1)) // 1 miss + 2 hits
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, telemetry.ContentType)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()

	for _, want := range []string{
		`topoopt_requests_total{endpoint="plan"} 3`,
		"topoopt_cache_hits_total 2",
		"topoopt_cache_misses_total 1",
		"topoopt_shed_total 0",
		"topoopt_queue_full_total 0",
		"topoopt_store_errors_total 0",
		"topoopt_request_latency_seconds_count 3",
		`topoopt_stage_latency_seconds{stage="search",quantile="0.5"}`,
		"# TYPE topoopt_stage_latency_seconds summary",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("invalid exposition line %q", line)
		}
	}
}

func TestWriteMetricsTextDeterministic(t *testing.T) {
	snap := MetricsSnapshot{
		Requests:           map[string]int64{"plan": 5, "compare": 2, "cost": 1},
		CacheHits:          3,
		CacheMisses:        2,
		CacheEntries:       2,
		Coalesced:          1,
		Optimizations:      2,
		QueueDepth:         1,
		QueueCapacity:      64,
		Draining:           true,
		MeanServiceSeconds: 0.125,
		MCMCProposals:      400,
		Latency: LatencySummary{Count: 5, SumSeconds: 1.5, MeanSeconds: 0.3,
			P50Seconds: 0.2, P90Seconds: 0.5, P99Seconds: 0.6, MaxSeconds: 0.6},
		Stages: map[string]telemetry.StageSummary{
			"search": {Count: 2, SumSeconds: 0.9, P50Seconds: 0.45},
			"decode": {Count: 5, SumSeconds: 0.001, P50Seconds: 0.0002},
		},
	}
	var a, b bytes.Buffer
	if err := WriteMetricsText(&a, snap); err != nil {
		t.Fatalf("WriteMetricsText: %v", err)
	}
	if err := WriteMetricsText(&b, snap); err != nil {
		t.Fatalf("WriteMetricsText: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two renders of the same snapshot differ")
	}
	// Stage labels render in enum order regardless of map iteration:
	// decode strictly before search.
	out := a.String()
	if strings.Index(out, `stage="decode"`) > strings.Index(out, `stage="search"`) {
		t.Error("stage families not in enum order")
	}
	if !strings.Contains(out, "topoopt_draining 1") {
		t.Error("draining gauge missing")
	}
}
