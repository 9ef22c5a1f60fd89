//go:build !race

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"topoopt"
)

// discardWriter is a ResponseWriter that drops the body.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(c int)           { w.code = c }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// hitAllocs is the allocation count of one HTTP cache hit on a service
// holding plan.
func hitAllocs(t *testing.T, plan *topoopt.Plan, req PlanRequest) float64 {
	t.Helper()
	s := New(Config{Workers: 1,
		Optimize: func(context.Context, *topoopt.Model, topoopt.Options) (*topoopt.Plan, error) { return plan, nil }})
	defer s.Close()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	hit := func() {
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(body)))
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	}
	hit() // the miss
	return testing.AllocsPerRun(50, hit)
}

// TestHitAllocsIndependentOfPlanSize: a hit writes stored bytes, so a
// 128-server plan's hit allocates no more objects than a 4-server one's.
// Excluded under the race detector, whose sync.Pool drops items at
// random and so adds allocations to either side.
func TestHitAllocsIndependentOfPlanSize(t *testing.T) {
	small := hitAllocs(t, stubPlan(t), testRequest(1))
	large := hitAllocs(t, mustLargePlan(t), largeRequest())
	if large > small {
		t.Fatalf("a 128-server hit allocates %v objects, a 4-server hit %v", large, small)
	}
}

// pollAllocs is the allocation count of one HTTP poll of a done job
// whose result is plan.
func pollAllocs(t *testing.T, plan *topoopt.Plan, req PlanRequest) float64 {
	t.Helper()
	s := New(Config{Workers: 1,
		Optimize: func(context.Context, *topoopt.Model, topoopt.Options) (*topoopt.Plan, error) { return plan, nil }})
	defer s.Close()
	j, err := s.SubmitJob(req)
	if err != nil {
		t.Fatal(err)
	}
	waitJobDone(t, s, j.Fingerprint)
	h := s.Handler()
	poll := func() {
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+j.ID, nil))
		if w.code != http.StatusOK {
			t.Fatalf("status %d", w.code)
		}
	}
	return testing.AllocsPerRun(20, poll)
}

// TestJobPollAllocsIndependentOfPlanSize: a done job's poll writes the
// result's stored bytes, so polling a 128-server plan job allocates a few
// dozen objects, no more than polling a 4-server one.
func TestJobPollAllocsIndependentOfPlanSize(t *testing.T) {
	small := pollAllocs(t, stubPlan(t), testRequest(1))
	large := pollAllocs(t, mustLargePlan(t), largeRequest())
	if large > small || large > 50 {
		t.Fatalf("a 128-server poll allocates %v objects, a 4-server poll %v", large, small)
	}
}
