package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"topoopt"
	"topoopt/internal/wal"
)

// storedPlan is the layout of a wrapped plan record: persist must write
// exactly json.Marshal of it (see wrapStoredPlan).
type storedPlan struct {
	Request *PlanRequest  `json:"request,omitempty"`
	Plan    *topoopt.Plan `json:"plan"`
}

// largePlan is a real 128-server plan, about 800 KB of JSON: one
// host-forwarding path per server pair dominates it.
var largePlan = sync.OnceValues(func() (*topoopt.Plan, error) {
	return topoopt.Optimize(topoopt.BERT(topoopt.Sec6), topoopt.Options{
		Servers: 128, Degree: 4, LinkBandwidth: 100e9, Seed: 1})
})

func mustLargePlan(t testing.TB) *topoopt.Plan {
	t.Helper()
	p, err := largePlan()
	if err != nil {
		t.Fatalf("building the 128-server plan: %v", err)
	}
	return p
}

// largeRequest is a valid request for the 128-server plan.
func largeRequest() PlanRequest {
	return PlanRequest{Model: topoopt.ModelSpec{Preset: "bert", Section: "6"},
		Options: topoopt.Options{Servers: 128, Degree: 4, LinkBandwidth: 100e9, Seed: 1}}
}

// encoderBytes is what json.NewEncoder(w).Encode writes for v.
func encoderBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// postOK POSTs body to path and returns the 200 response's bytes.
func postOK(t *testing.T, url, path string, body any) []byte {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes()
}

// TestResponsesByteIdenticalToEncoder pins the one response path: plan,
// compare and sweep answers — fresh and cached, computed with and
// without a store, and re-served after a restart from the store's
// bytes — are byte for byte json.Encoder's output for PlanResponse,
// CompareResponse and SweepResponse.
func TestResponsesByteIdenticalToEncoder(t *testing.T) {
	plan := stubPlan(t)
	preq := testRequest(1)
	cspec := topoopt.ModelSpec{Preset: "candle", Section: "6"}
	copts := topoopt.Options{Servers: 4, Degree: 2, LinkBandwidth: 100e9, MCMCIters: 5, Rounds: 1, Seed: 3}
	archs := []topoopt.Architecture{"IdealSwitch", "Fat-tree"}
	creq := CompareRequest{Model: cspec, Options: copts, Archs: []string{"IdealSwitch", "Fat-tree"}}
	sreq := SweepRequest{Spec: tinyFleetSpec(5), Replicas: 4}

	// want holds the expected fresh bodies; the cached ones differ only in
	// the flag.
	var wantPlan, wantCompare, wantSweep func(cached bool) []byte
	check := func(label string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s: response is not json.Encoder's:\ngot  %.300s\nwant %.300s", label, got, want)
		}
	}
	serveAll := func(label string, s *Service, cached bool) {
		t.Helper()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		check(label+" plan", postOK(t, ts.URL, "/v1/plan", preq), wantPlan(cached))
		check(label+" compare", postOK(t, ts.URL, "/v1/compare", creq), wantCompare(cached))
		check(label+" sweep", postOK(t, ts.URL, "/v1/sweep", sreq), wantSweep(cached))
	}
	stub := func(context.Context, *topoopt.Model, topoopt.Options) (*topoopt.Plan, error) { return plan, nil }

	// The expected bodies come from the typed values a Go caller of a
	// separate service gets.
	ref := New(Config{Workers: 2, Optimize: stub})
	defer ref.Close()
	ctx := context.Background()
	m, err := cspec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	results, cfp, _, err := ref.Compare(ctx, cspec, m, copts, archs)
	if err != nil {
		t.Fatal(err)
	}
	sweep, sfp, _, err := ref.Sweep(ctx, sreq.Spec, sreq.Replicas, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantPlan = func(cached bool) []byte {
		return encoderBytes(t, PlanResponse{Fingerprint: preq.Fingerprint(), Cached: cached, Plan: plan})
	}
	wantCompare = func(cached bool) []byte {
		return encoderBytes(t, CompareResponse{Fingerprint: cfp, Cached: cached, Results: results})
	}
	wantSweep = func(cached bool) []byte {
		return encoderBytes(t, SweepResponse{Fingerprint: sfp, Cached: cached, Sweep: sweep})
	}

	mem := New(Config{Workers: 2, Optimize: stub})
	serveAll("in-memory fresh", mem, false)
	serveAll("in-memory cached", mem, true)
	mem.Close()

	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	durable := New(Config{Workers: 2, Store: st, Optimize: stub})
	serveAll("stored fresh", durable, false)
	serveAll("stored cached", durable, true)
	durable.Close()

	st, err = OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	warmed := New(Config{Workers: 2, Store: st, Optimize: stub})
	defer warmed.Close()
	serveAll("restart-warm", warmed, true)
	if n := warmed.Metrics().Optimizations; n != 0 {
		t.Errorf("restart-warm daemon ran %d computations, want 0", n)
	}
}

// rawField returns the raw bytes of one top-level field of a JSON object.
func rawField(t *testing.T, body []byte, field string) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m[field] == nil {
		t.Fatalf("no %q field in %.200s", field, body)
	}
	return m[field]
}

// TestJobPollResultMatchesPlan: a done job's poll carries, as its result,
// the bytes POST /v1/plan answers with for the same request — for a plan
// computed in-process and for one re-served from the store after a
// restart.
func TestJobPollResultMatchesPlan(t *testing.T) {
	plan := stubPlan(t)
	req := testRequest(1)
	stub := func(context.Context, *topoopt.Model, topoopt.Options) (*topoopt.Plan, error) { return plan, nil }
	dir := t.TempDir()
	for _, label := range []string{"computed", "restart-warm"} {
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := New(Config{Workers: 2, Store: st, Optimize: stub})
		ts := httptest.NewServer(s.Handler())
		j, err := s.SubmitJob(req)
		if err != nil {
			t.Fatal(err)
		}
		if done := pollJob(t, ts.URL, j.ID); done.Status != JobDone {
			t.Fatalf("%s: job ended %s: %s", label, done.Status, done.Error)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID)
		if err != nil {
			t.Fatal(err)
		}
		var poll bytes.Buffer
		_, err = poll.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := rawField(t, poll.Bytes(), "result")
		want := rawField(t, postOK(t, ts.URL, "/v1/plan", req), "plan")
		if !bytes.Equal(got, want) {
			t.Errorf("%s: poll result differs from the /v1/plan answer:\ngot  %.300s\nwant %.300s", label, got, want)
		}
		ts.Close()
		s.Close()
	}
}

// TestResultDerivesOnceConcurrently: concurrent first uses of a result's
// derived form share one derivation — every caller gets the same bytes,
// or the same decoded value.
func TestResultDerivesOnceConcurrently(t *testing.T) {
	plan := stubPlan(t)
	pb, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	fresh, warmed := computed(kindPlan, plan), storedBytes(kindPlan, pb)
	const callers = 8
	bs, vs := make([][]byte, callers), make([]any, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if bs[i], err = fresh.bytes(); err != nil {
				t.Error(err)
			}
			if vs[i], err = warmed.value(); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if !bytes.Equal(bs[0], pb) {
		t.Fatal("the encoded bytes differ from json.Marshal's")
	}
	for i := 1; i < callers; i++ {
		if &bs[i][0] != &bs[0][0] || vs[i] != vs[0] {
			t.Fatalf("caller %d got a second derivation", i)
		}
	}
}

// TestPutRecordBytesUnchanged: the one shared encode leaves the WAL's
// put records exactly as a full marshal writes them — a plan wrapped
// with its canonical request, a comparison as its bare results.
func TestPutRecordBytesUnchanged(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plan := mustLargePlan(t)
	s := New(Config{Workers: 1, Store: st,
		Optimize: func(context.Context, *topoopt.Model, topoopt.Options) (*topoopt.Plan, error) { return plan, nil }})
	defer s.Close()
	ctx := context.Background()
	req := largeRequest()
	if _, _, _, err := s.Plan(ctx, req); err != nil {
		t.Fatal(err)
	}
	spec := topoopt.ModelSpec{Preset: "candle", Section: "6"}
	o := topoopt.Options{Servers: 4, Degree: 2, LinkBandwidth: 100e9, MCMCIters: 5, Rounds: 1, Seed: 3}
	m, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	results, cfp, _, err := s.Compare(ctx, spec, m, o, []topoopt.Architecture{"IdealSwitch"})
	if err != nil {
		t.Fatal(err)
	}
	creq := canonical(req)
	wantPlan, err := json.Marshal(storedPlan{Request: &creq, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	wantCompare, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{req.Fingerprint(): wantPlan, cfp: wantCompare}
	recs := st.wal.Records()
	if len(recs) != len(want) {
		t.Fatalf("%d records, want %d", len(recs), len(want))
	}
	for _, r := range recs {
		if !bytes.Equal(r.Payload, want[r.Fp]) {
			t.Errorf("%s record %s differs from a full marshal:\ngot  %.200s\nwant %.200s", r.Kind, r.Fp, r.Payload, want[r.Fp])
		}
	}
}

// TestDecodeStoredShapes: booting reads a plan record's shape, not its
// plan. A wrapped record yields its request and the plan's bytes, a bare
// plan is taken whole, and anything else is a store error, as is a
// record of unknown kind.
func TestDecodeStoredShapes(t *testing.T) {
	if _, _, err := decodeStored("bogus", []byte(`{}`)); err == nil {
		t.Error("a record of unknown kind was accepted")
	}
	plan := stubPlan(t)
	pb, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	req := canonical(testRequest(1))
	wrapped, err := json.Marshal(storedPlan{Request: &req, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		payload string
		wantReq bool
		wantErr bool
	}{
		{"wrapped", string(wrapped), true, false},
		{"bare", string(pb), false, false},
		{"string", `"torn"`, false, true},
		{"request only", `{"request":{"model":{},"options":{}}}`, false, true},
		{"bad request", `{"request":[1],"plan":{}}`, false, true},
	} {
		res, gotReq, err := decodeStored(kindPlan, []byte(tc.payload))
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err %v, want error %v", tc.name, err, tc.wantErr)
			continue
		}
		if err != nil {
			continue
		}
		if (gotReq != nil) != tc.wantReq || (gotReq != nil && gotReq.Fingerprint() != req.Fingerprint()) {
			t.Errorf("%s: request %+v", tc.name, gotReq)
		}
		if b, _ := res.bytes(); !bytes.Equal(b, pb) {
			t.Errorf("%s: plan bytes %.120s, want %.120s", tc.name, b, pb)
		}
		v, err := res.value()
		if err != nil {
			t.Fatalf("%s: decoding the plan: %v", tc.name, err)
		}
		if b, _ := json.Marshal(v); !bytes.Equal(b, pb) {
			t.Errorf("%s: decoded plan re-encodes differently", tc.name)
		}
	}
}

// TestWarmBootDecodesNothing: a warmed entry keeps its record's bytes
// through boot and through HTTP hits, and is decoded once a Go caller
// asks for the typed plan.
func TestWarmBootDecodesNothing(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	plan := mustLargePlan(t)
	req := largeRequest()
	s1 := New(Config{Workers: 1, Store: st,
		Optimize: func(context.Context, *topoopt.Model, topoopt.Options) (*topoopt.Plan, error) { return plan, nil }})
	if _, _, _, err := s1.Plan(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	st, err = OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Store: st})
	defer s.Close()
	fp := req.Fingerprint()
	decoded := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		res, ok := s.cache.get(fp)
		if !ok {
			t.Fatal("the stored plan was not warmed")
		}
		return res.v != nil
	}
	if decoded() {
		t.Fatal("boot decoded the stored plan")
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	got := postOK(t, ts.URL, "/v1/plan", req)
	if want := encoderBytes(t, PlanResponse{Fingerprint: fp, Cached: true, Plan: plan}); !bytes.Equal(got, want) {
		t.Fatal("warmed hit differs from the encoded plan")
	}
	if decoded() {
		t.Fatal("an HTTP hit decoded the stored plan")
	}
	p, _, cached, err := s.Plan(context.Background(), req)
	if err != nil || !cached {
		t.Fatalf("Plan: cached=%v err=%v", cached, err)
	}
	if !decoded() {
		t.Fatal("a Go caller got a plan without a decode")
	}
	a, _ := json.Marshal(p)
	b, _ := json.Marshal(plan)
	if !bytes.Equal(a, b) {
		t.Fatal("decoded plan differs from the stored one")
	}
}

// slowWriter is a ResponseWriter whose every Write takes delay.
type slowWriter struct {
	h     http.Header
	code  int
	delay time.Duration
}

func (w *slowWriter) Header() http.Header { return w.h }
func (w *slowWriter) WriteHeader(c int)   { w.code = c }
func (w *slowWriter) Write(b []byte) (int, error) {
	time.Sleep(w.delay)
	return len(b), nil
}

// TestLatencyCoversResponseWrite: the request-latency window times a plan
// answer to its last byte written, so a hit whose socket write is slow
// reads slow.
func TestLatencyCoversResponseWrite(t *testing.T) {
	plan := stubPlan(t)
	s := New(Config{Workers: 1,
		Optimize: func(context.Context, *topoopt.Model, topoopt.Options) (*topoopt.Plan, error) { return plan, nil }})
	defer s.Close()
	req := testRequest(1)
	if _, _, _, err := s.Plan(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(req)
	const delay = 10 * time.Millisecond
	w := &slowWriter{h: http.Header{}, delay: delay}
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
	if w.code != http.StatusOK {
		t.Fatalf("status %d", w.code)
	}
	lat := s.Metrics().Latency
	if lat.Count != 1 || lat.MaxSeconds < delay.Seconds() {
		t.Fatalf("latency window %+v: want one answer of at least %v", lat, delay)
	}
}

// stallAppends makes st block every append of op until release is
// closed; stalled is closed when the first one arrives.
func stallAppends(st *Store, op string) (stalled, release chan struct{}) {
	stalled, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	st.stall = func(r wal.Record) {
		if r.Op == op {
			once.Do(func() { close(stalled) })
			<-release
		}
	}
	return stalled, release
}

// TestPutAppendedBeforeRelease: while a flight's put is held off the log,
// none of its waiters has returned and its fingerprint is no cache hit —
// no client ever reads a result a kill -9 could still lose.
func TestPutAppendedBeforeRelease(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stalled, release := stallAppends(st, wal.OpPut)
	plan := stubPlan(t)
	s := New(Config{Workers: 1, Store: st,
		Optimize: func(context.Context, *topoopt.Model, topoopt.Options) (*topoopt.Plan, error) { return plan, nil }})
	defer s.Close()
	req := testRequest(1)
	const waiters = 3
	var returned atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, _, err := s.Plan(context.Background(), req); err != nil {
				t.Error(err)
			}
			returned.Add(1)
		}()
	}
	<-stalled
	s.mu.Lock()
	f := s.flights[req.Fingerprint()]
	s.mu.Unlock()
	if f == nil {
		t.Error("the flight was unregistered before its put reached the log")
	} else {
		select {
		case <-f.done:
			t.Error("the waiters were released before the put reached the log")
		default:
		}
	}
	if n := returned.Load(); n != 0 {
		t.Errorf("%d waiters returned before the put reached the log", n)
	}
	if s.cachePeek(req.Fingerprint()) {
		t.Error("the result was cached before its put reached the log")
	}
	close(release)
	wg.Wait()
	if !s.cachePeek(req.Fingerprint()) {
		t.Error("the result was not cached after its put")
	}
}

// TestJobDoneAppendedBeforeDone: while a job's job_done is held off the
// log, the job does not report done — a job reported done never still
// has a journal entry to re-run on the next boot.
func TestJobDoneAppendedBeforeDone(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stalled, release := stallAppends(st, wal.OpJobDone)
	plan := stubPlan(t)
	s := New(Config{Workers: 1, Store: st,
		Optimize: func(context.Context, *topoopt.Model, topoopt.Options) (*topoopt.Plan, error) { return plan, nil }})
	defer s.Close()
	j, err := s.SubmitJob(testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	<-stalled
	if got, _ := s.GetJob(j.ID); got.Status == JobDone {
		t.Error("the job reported done before its job_done reached the log")
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, _ := s.GetJob(j.ID)
		if got.Status == JobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job status %q after its job_done was appended", got.Status)
		}
		time.Sleep(time.Millisecond)
	}
	if st.wal.HasJob(kindPlan, j.Fingerprint) {
		t.Error("a done job is still journaled")
	}
}

// TestJobResultIsTyped: an async job answered from a warmed entry carries
// the decoded plan, like one computed in-process.
func TestJobResultIsTyped(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	plan := stubPlan(t)
	s1 := New(Config{Workers: 1, Store: st,
		Optimize: func(context.Context, *topoopt.Model, topoopt.Options) (*topoopt.Plan, error) { return plan, nil }})
	if _, _, _, err := s1.Plan(context.Background(), testRequest(1)); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	st, err = OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Store: st})
	defer s.Close()
	j, err := s.SubmitJob(testRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	p, ok := j.Result.(*topoopt.Plan)
	if j.Status != JobDone || !ok {
		t.Fatalf("job status %q result %T, want done with a *topoopt.Plan", j.Status, j.Result)
	}
	a, _ := json.Marshal(p)
	b, _ := json.Marshal(plan)
	if !bytes.Equal(a, b) {
		t.Fatal("job result differs from the stored plan")
	}
}
