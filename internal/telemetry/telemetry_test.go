package telemetry

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestStageSumMatchesWallTime pins the tracing contract the /debug/
// requests endpoint advertises: the per-stage durations of a trace that
// spends all its time inside stages sum to the trace's wall time within
// a small epsilon (clock reads between stages).
func TestStageSumMatchesWallTime(t *testing.T) {
	reg := NewRegistry(8)
	tr := reg.Begin("plan")
	tr.Start(StageDecode)
	time.Sleep(2 * time.Millisecond)
	tr.Start(StageCache) // implicit End of decode
	time.Sleep(3 * time.Millisecond)
	tr.End()
	tr.Add(StageSearch, 5*time.Millisecond) // externally measured
	tr.Finish("fp1", false, 200)

	recs := reg.Requests()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	// The traced portion (decode+cache) must cover the wall time minus
	// the Add'd external 5ms, within 1ms of bookkeeping slack.
	traced := r.StageSumSeconds - 5e-3
	wall := r.TotalSeconds
	if diff := wall - traced; diff < 0 || diff > 1e-3 {
		t.Fatalf("stage sum %.6fs vs wall %.6fs: diff %.6fs outside [0, 1ms]", traced, wall, diff)
	}
	if r.Endpoint != "plan" || r.Fingerprint != "fp1" || r.Cached || r.Status != 200 {
		t.Fatalf("record fields wrong: %+v", r)
	}
	if len(r.Stages) != 3 {
		t.Fatalf("got %d stages, want 3 (decode, cache, search): %+v", len(r.Stages), r.Stages)
	}
	// Stages come back in enum order with stable labels.
	want := []string{"decode", "cache", "search"}
	for i, sp := range r.Stages {
		if sp.Stage != want[i] {
			t.Fatalf("stage %d = %q, want %q", i, sp.Stage, want[i])
		}
	}
}

// TestPooledTraceNoResidue reuses the pool slot a finished trace
// returned and checks nothing leaks across the reuse: no stage
// durations, no search progress, no stale identity.
func TestPooledTraceNoResidue(t *testing.T) {
	reg := NewRegistry(8)
	tr := reg.Begin("plan")
	tr.Start(StageDecode)
	tr.Add(StageSearch, time.Second)
	tr.SetSearchProgress(100, 200)
	tr.Finish("dirty", true, 500)

	// Drain the pool until we (very likely) see the recycled struct; a
	// fresh one passes the same assertions anyway.
	tr2 := reg.Begin("compare")
	tr2.Finish("", false, 200)
	recs := reg.Requests()
	r := recs[0] // newest first: the tr2 record
	if r.Endpoint != "compare" || r.Fingerprint != "" || r.Cached || r.Status != 200 {
		t.Fatalf("recycled trace carried residue: %+v", r)
	}
	if len(r.Stages) != 0 || r.StageSumSeconds != 0 {
		t.Fatalf("recycled trace carried stages: %+v", r.Stages)
	}
	if r.SearchDone != 0 || r.SearchTotal != 0 {
		t.Fatalf("recycled trace carried search progress: %+v", r)
	}
}

// TestNilTraceSafe: every Trace method must be a no-op on nil so
// untraced code paths share the instrumented call sites.
func TestNilTraceSafe(t *testing.T) {
	var tr *Trace
	tr.Start(StageDecode)
	tr.End()
	tr.Add(StageQueue, time.Second)
	tr.SetSearchProgress(1, 2)
	if got := tr.AppendHeader(nil); got != nil {
		t.Fatalf("nil AppendHeader wrote %q", got)
	}
	tr.Finish("", false, 0)
	var reg *Registry
	if reg.Begin("x") != nil {
		t.Fatal("nil registry Begin returned a trace")
	}
	if reg.Requests() != nil || reg.StageSummaries() != nil {
		t.Fatal("nil registry snapshots not nil")
	}
}

// TestRingWrapsUnderConcurrentWriters hammers a small ring from many
// goroutines (race-detector coverage) and checks the ring holds exactly
// its capacity of valid, newest-first records afterwards.
func TestRingWrapsUnderConcurrentWriters(t *testing.T) {
	const ringSize, writers, perWriter = 8, 16, 50
	reg := NewRegistry(ringSize)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tr := reg.Begin("plan")
				tr.Add(StageCache, time.Duration(i+1)*time.Microsecond)
				tr.Finish(fmt.Sprintf("w%d-%d", w, i), i%2 == 0, 200)
				if i%5 == 0 {
					reg.Requests() // concurrent readers too
				}
			}
		}(w)
	}
	wg.Wait()
	recs := reg.Requests()
	if len(recs) != ringSize {
		t.Fatalf("ring holds %d records, want %d", len(recs), ringSize)
	}
	for i, r := range recs {
		if r.Endpoint != "plan" || r.Status != 200 || len(r.Stages) != 1 {
			t.Fatalf("record %d corrupt after wrap: %+v", i, r)
		}
		if i > 0 && recs[i-1].Time.Before(r.Time) {
			t.Fatalf("records not newest-first at %d", i)
		}
	}
	sums := reg.StageSummaries()
	if got := sums["cache"].Count; got != writers*perWriter {
		t.Fatalf("cache stage count %d, want %d", got, writers*perWriter)
	}
}

// TestPartialRingSnapshot: before the ring wraps, Requests returns only
// what was published, newest first.
func TestPartialRingSnapshot(t *testing.T) {
	reg := NewRegistry(8)
	for i := 0; i < 3; i++ {
		tr := reg.Begin("plan")
		tr.Finish(fmt.Sprintf("fp%d", i), false, 200)
	}
	recs := reg.Requests()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[0].Fingerprint != "fp2" || recs[2].Fingerprint != "fp0" {
		t.Fatalf("not newest-first: %+v", recs)
	}
}

// TestHeaderFormat pins the X-Trace header grammar: total first, then
// stages in enum order, zero stages omitted, microsecond units.
func TestHeaderFormat(t *testing.T) {
	reg := NewRegistry(2)
	tr := reg.Begin("plan")
	tr.Add(StageCache, 1500*time.Nanosecond) // 1.5us
	tr.Add(StageQueue, 2*time.Millisecond)
	tr.Add(StageSearch, 30*time.Millisecond)
	h := string(tr.AppendHeader(nil))
	tr.Finish("", false, 200)
	if !strings.HasPrefix(h, "total=") {
		t.Fatalf("header %q does not start with total=", h)
	}
	for _, want := range []string{"cache=1.5us", "queue=2000us", "search=30000us"} {
		if !strings.Contains(h, want) {
			t.Fatalf("header %q missing %q", h, want)
		}
	}
	if strings.Contains(h, "decode=") {
		t.Fatalf("header %q contains zero stage", h)
	}
	ci, qi := strings.Index(h, "cache="), strings.Index(h, "queue=")
	if ci > qi {
		t.Fatalf("header %q stages out of enum order", h)
	}
}

// TestOpenStageVisibleInHeader: an open stage is included in the header
// up to now without being closed.
func TestOpenStageVisibleInHeader(t *testing.T) {
	reg := NewRegistry(2)
	tr := reg.Begin("plan")
	tr.Start(StageEncode)
	time.Sleep(time.Millisecond)
	h := string(tr.AppendHeader(nil))
	if !strings.Contains(h, "encode=") {
		t.Fatalf("header %q missing open stage", h)
	}
	tr.Finish("", false, 200)
	if got := reg.Requests()[0].Stages; len(got) != 1 || got[0].Stage != "encode" {
		t.Fatalf("open stage not closed by Finish: %+v", got)
	}
}

func TestStageString(t *testing.T) {
	cases := map[Stage]string{
		StageDecode: "decode", StageAdmission: "admission", StageCache: "cache",
		StageQueue: "queue", StageSearch: "search", StagePersist: "persist",
		StageEncode: "encode", NumStages: "unknown", Stage(200): "unknown",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Fatalf("Stage(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

// observe publishes one trace that spent d in stage s and nothing
// anywhere else: the only way a duration reaches the stage windows.
func observe(reg *Registry, s Stage, d time.Duration) {
	tr := reg.Begin("plan")
	tr.Add(s, d)
	tr.Finish("", false, 200)
}

func TestStageSummariesFromTraces(t *testing.T) {
	reg := NewRegistry(2)
	for i := 1; i <= 100; i++ {
		observe(reg, StagePersist, time.Duration(i)*time.Millisecond)
	}
	sums := reg.StageSummaries()
	p, ok := sums["persist"]
	if !ok {
		t.Fatal("persist summary missing")
	}
	if p.Count != 100 {
		t.Fatalf("count %d, want 100", p.Count)
	}
	if p.MaxSeconds != 0.1 {
		t.Fatalf("max %v, want 0.1", p.MaxSeconds)
	}
	if p.P50Seconds < 0.049 || p.P50Seconds > 0.052 {
		t.Fatalf("p50 %v outside [0.049, 0.052]", p.P50Seconds)
	}
	if p.SumSeconds < 5.04 || p.SumSeconds > 5.06 {
		t.Fatalf("sum %v, want ~5.05", p.SumSeconds)
	}
	if names := StageNames(sums); len(names) != 1 || names[0] != "persist" {
		t.Fatalf("StageNames = %v", names)
	}
	// Unknown keys still render (sorted after the enum block).
	sums["zzz"] = StageSummary{}
	sums["aaa"] = StageSummary{}
	if names := StageNames(sums); len(names) != 3 || names[1] != "aaa" || names[2] != "zzz" {
		t.Fatalf("StageNames with extras = %v", names)
	}
}

// TestStageWindowWraps: the quantile window is bounded; quantiles follow
// recent behavior while count/sum stay all-time.
func TestStageWindowWraps(t *testing.T) {
	reg := NewRegistry(2)
	for i := 0; i < stageWindow; i++ {
		observe(reg, StageSearch, time.Second)
	}
	for i := 0; i < stageWindow; i++ {
		observe(reg, StageSearch, time.Millisecond)
	}
	s := reg.StageSummaries()["search"]
	if s.Count != 2*stageWindow {
		t.Fatalf("count %d, want %d", s.Count, 2*stageWindow)
	}
	if s.MaxSeconds != 1e-3 {
		t.Fatalf("max %v: old window values leaked into quantiles", s.MaxSeconds)
	}
}

// TestWindowMeanAndSummary: the mean and quantiles cover the last size
// observations; Count and SumSeconds cover all of them.
func TestWindowMeanAndSummary(t *testing.T) {
	w := NewWindow(4)
	if w.Mean() != 0 || w.Summary() != (StageSummary{}) {
		t.Fatalf("empty window: mean %v summary %+v", w.Mean(), w.Summary())
	}
	for v := 1.0; v <= 6; v++ {
		w.Observe(v)
	}
	if m := w.Mean(); m != 4.5 {
		t.Fatalf("mean %v, want 4.5 over the window {3,4,5,6}", m)
	}
	want := StageSummary{Count: 6, SumSeconds: 21, P50Seconds: 4.5, P90Seconds: 5.7, P99Seconds: 5.97, MaxSeconds: 6}
	got := w.Summary()
	if got.Count != want.Count || got.SumSeconds != want.SumSeconds || got.MaxSeconds != want.MaxSeconds ||
		math.Abs(got.P50Seconds-want.P50Seconds) > 1e-9 || math.Abs(got.P90Seconds-want.P90Seconds) > 1e-9 ||
		math.Abs(got.P99Seconds-want.P99Seconds) > 1e-9 {
		t.Fatalf("summary %+v, want %+v", got, want)
	}
}

func TestProgress(t *testing.T) {
	var p Progress
	p.Set(10, 200)
	if d, tot := p.Load(); d != 10 || tot != 200 {
		t.Fatalf("Load = (%d, %d), want (10, 200)", d, tot)
	}
	ctx := ContextWithProgress(context.Background(), &p)
	if got := ProgressFromContext(ctx); got != &p {
		t.Fatal("progress did not round-trip through context")
	}
	if ProgressFromContext(context.Background()) != nil {
		t.Fatal("empty context returned a progress sink")
	}
	var nilP *Progress
	nilP.Set(1, 2) // must not panic
	if d, tot := nilP.Load(); d != 0 || tot != 0 {
		t.Fatal("nil progress loaded nonzero")
	}
}

// TestPromWriterByteStable renders a fixed family set twice and pins the
// exact bytes, including escaping, integer formatting and summary
// expansion.
func TestPromWriterByteStable(t *testing.T) {
	render := func() string {
		var b bytes.Buffer
		w := NewPromWriter(&b)
		w.Family("topoopt_requests_total", "Requests by endpoint.", "counter")
		w.Int("topoopt_requests_total", 42, "endpoint", "plan")
		w.Int("topoopt_requests_total", 7, "endpoint", `we"ird\nam
e`)
		w.Family("topoopt_queue_depth", "Queued tasks.", "gauge")
		w.Int("topoopt_queue_depth", 3)
		w.Family("topoopt_mean_service_seconds", "Mean service time, back\\slash\nnewline.", "gauge")
		w.Sample("topoopt_mean_service_seconds", 0.125)
		w.Family("topoopt_stage_seconds", "Stage latency.", "summary")
		w.Summary("topoopt_stage_seconds", StageSummary{
			Count: 10, SumSeconds: 1.5, P50Seconds: 0.1, P90Seconds: 0.2, P99Seconds: 0.25, MaxSeconds: 0.3,
		}, "stage", "queue")
		if err := w.Err(); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("two renders differ")
	}
	want := `# HELP topoopt_requests_total Requests by endpoint.
# TYPE topoopt_requests_total counter
topoopt_requests_total{endpoint="plan"} 42
topoopt_requests_total{endpoint="we\"ird\\nam\ne"} 7
# HELP topoopt_queue_depth Queued tasks.
# TYPE topoopt_queue_depth gauge
topoopt_queue_depth 3
# HELP topoopt_mean_service_seconds Mean service time, back\\slash\nnewline.
# TYPE topoopt_mean_service_seconds gauge
topoopt_mean_service_seconds 0.125
# HELP topoopt_stage_seconds Stage latency.
# TYPE topoopt_stage_seconds summary
topoopt_stage_seconds{stage="queue",quantile="0.5"} 0.1
topoopt_stage_seconds{stage="queue",quantile="0.9"} 0.2
topoopt_stage_seconds{stage="queue",quantile="0.99"} 0.25
topoopt_stage_seconds_sum{stage="queue"} 1.5
topoopt_stage_seconds_count{stage="queue"} 10
`
	if a != want {
		t.Fatalf("exposition drifted:\ngot:\n%s\nwant:\n%s", a, want)
	}
}

// TestPromWriterStickyError: after a write failure every later call is
// a no-op and Err reports the first failure.
func TestPromWriterStickyError(t *testing.T) {
	w := NewPromWriter(failWriter{})
	w.Family("m", "h", "counter")
	first := w.Err()
	if first == nil {
		t.Fatal("no error from failing writer")
	}
	w.Int("m", 1)
	w.Sample("m", 2.5)
	if w.Err() != first {
		t.Fatal("error not sticky")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("sink closed") }

// BenchmarkTraceHotPath guards the zero-alloc claim of the pooled trace
// lifecycle (Begin → stages → Finish into the ring).
func BenchmarkTraceHotPath(b *testing.B) {
	reg := NewRegistry(DefaultRingSize)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := reg.Begin("plan")
		tr.Start(StageDecode)
		tr.Start(StageCache)
		tr.End()
		tr.Add(StageQueue, time.Microsecond)
		tr.Finish("fp", true, 200)
	}
}
