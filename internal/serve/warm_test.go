package serve

// Warm-start tests: the plan-similarity index, near-miss warm seeding,
// index rebuild from the WAL after a crash, and the anytime partial
// stream of async plan jobs.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"topoopt"
	"topoopt/internal/wal"
)

// canonical mirrors what planRun indexes: the request in canonical form.
func canonical(req PlanRequest) PlanRequest {
	return PlanRequest{Model: req.Model.Canonical(), Options: req.Options.Canonical()}
}

// TestSimIndexInsertionOrderIndependent pins the determinism contract
// of neighbor selection: the nearest fingerprint is a function of the
// index *contents*, never of the order entries were added in — ties
// break toward the lexicographically smallest fingerprint.
func TestSimIndexInsertionOrderIndependent(t *testing.T) {
	// Three same-bucket entries around the query testRequest(1):
	//   "a" (seed 3)   → distance 0.5 (seed-only perturbation)
	//   "b" (seed 2)   → distance 0.5 (seed-only perturbation — tie with "a")
	//   "c" (degree 5) → distance 4·relDiff(4,5) = 0.8 (degree perturbation)
	entries := map[string]PlanRequest{
		"a": canonical(testRequest(3)),
		"b": canonical(testRequest(2)),
	}
	degReq := testRequest(1)
	degReq.Options.Degree = 5
	entries["c"] = canonical(degReq)

	orders := [][]string{{"a", "b", "c"}, {"c", "b", "a"}, {"b", "c", "a"}}
	for _, order := range orders {
		x := newSimIndex()
		for _, fp := range order {
			x.add(fp, entries[fp])
		}
		got, ok := x.nearest(canonical(testRequest(1)), "self")
		if !ok || got != "a" {
			t.Errorf("insertion order %v: nearest = %q (ok=%v), want \"a\" (tie broken to smallest fp)",
				order, got, ok)
		}
		// Sanity: an exact-options entry (distance 0) must beat the
		// seed-perturbed tie pair.
		if got, ok := x.nearest(canonical(testRequest(2)), "self"); !ok || got != "b" {
			t.Errorf("insertion order %v: nearest(seed 2) = %q (ok=%v), want \"b\"", order, got, ok)
		}
	}

	// Removal keeps the bucket consistent: with "a" gone the tie
	// resolves to "b" regardless of the original order.
	x := newSimIndex()
	for _, fp := range []string{"c", "a", "b"} {
		x.add(fp, entries[fp])
	}
	x.remove("a")
	if got, ok := x.nearest(canonical(testRequest(1)), "self"); !ok || got != "b" {
		t.Errorf("after removing \"a\": nearest = %q (ok=%v), want \"b\"", got, ok)
	}
	if x.len() != 2 {
		t.Errorf("index len = %d after one removal of three, want 2", x.len())
	}
}

// TestWarmStartSeedsNearMissSearch: the first request of a bucket runs
// cold; a near-miss follow-up (same model and server count, different
// seed) reaches the optimizer with the neighbor's strategy in
// Options.WarmStart and the pinned patience; a request in a different
// bucket (other server count) runs cold again.
func TestWarmStartSeedsNearMissSearch(t *testing.T) {
	plan := stubPlan(t)
	var mu sync.Mutex
	var captured []topoopt.Options
	s := New(Config{Workers: 2, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
		mu.Lock()
		captured = append(captured, o)
		mu.Unlock()
		return plan, nil
	}})
	defer s.Close()

	for i, req := range []PlanRequest{testRequest(1), testRequest(2)} {
		if _, _, _, err := s.Plan(context.Background(), req); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	other := testRequest(3)
	other.Options.Servers = 8
	if _, _, _, err := s.Plan(context.Background(), other); err != nil {
		t.Fatalf("other-bucket request: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(captured) != 3 {
		t.Fatalf("optimizer ran %d times, want 3", len(captured))
	}
	if len(captured[0].WarmStart) != 0 || captured[0].Patience != 0 {
		t.Errorf("first request of a bucket must run cold, got %d warm seeds, patience %d",
			len(captured[0].WarmStart), captured[0].Patience)
	}
	if len(captured[1].WarmStart) != 1 {
		t.Fatalf("near-miss request got %d warm seeds, want 1", len(captured[1].WarmStart))
	}
	if !reflect.DeepEqual(captured[1].WarmStart[0], plan.Strategy) {
		t.Error("warm seed is not the neighbor plan's strategy")
	}
	if captured[1].Patience != warmPatience {
		t.Errorf("near-miss patience = %d, want %d", captured[1].Patience, warmPatience)
	}
	if len(captured[2].WarmStart) != 0 {
		t.Errorf("different-bucket request got %d warm seeds, want 0 (no cross-bucket warming)",
			len(captured[2].WarmStart))
	}

	m := s.Metrics()
	if m.WarmStarts != 1 {
		t.Errorf("warm_starts = %d, want 1", m.WarmStarts)
	}
	if m.SimIndexEntries != 3 {
		t.Errorf("sim_index_entries = %d, want 3", m.SimIndexEntries)
	}
}

// TestSimIndexRebuildFromWALAfterKill9: a service that crashes hard and
// restarts on its WAL rebuilds the similarity index from the stored
// request/plan pairs, and a post-restart near-miss warms from it —
// producing a plan byte-identical to the one an uncrashed service
// serves for the same request.
func TestSimIndexRebuildFromWALAfterKill9(t *testing.T) {
	// World A: no crash. Seed 1 cold, seed 2 warm from it.
	dirA := t.TempDir()
	storeA, err := OpenStore(dirA)
	if err != nil {
		t.Fatal(err)
	}
	sA := New(Config{Workers: 2, Store: storeA})
	tsA := httptest.NewServer(sA.Handler())
	if _, _, pr := postPlan(t, tsA.URL, testRequest(1), nil); pr.Cached {
		t.Fatal("world A seed 1: unexpected cache hit")
	}
	_, _, prA2 := postPlan(t, tsA.URL, testRequest(2), nil)
	tsA.Close()
	sA.Close()
	if got := sA.Metrics().WarmStarts; got != 1 {
		t.Fatalf("world A warm_starts = %d, want 1 (seed 2 warms from seed 1)", got)
	}

	// World B: plan seed 1, then kill -9 — no shutdown path, and a torn
	// half-record at the log tail.
	dirB := t.TempDir()
	storeB, err := OpenStore(dirB)
	if err != nil {
		t.Fatal(err)
	}
	sB1 := New(Config{Workers: 2, Store: storeB})
	tsB1 := httptest.NewServer(sB1.Handler())
	if resp, _, _ := postPlan(t, tsB1.URL, testRequest(1), nil); resp.StatusCode != 200 {
		t.Fatalf("world B seed 1: status %d", resp.StatusCode)
	}
	tsB1.Close()
	logPath := filepath.Join(dirB, wal.LogName)
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x2a, 0x00, 0x00}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	storeB2, err := OpenStore(dirB)
	if err != nil {
		t.Fatalf("reopening store after crash: %v", err)
	}
	sB2 := New(Config{Workers: 2, Store: storeB2})
	defer sB2.Close()
	if got := sB2.Metrics().SimIndexEntries; got != 1 {
		t.Fatalf("restarted index holds %d entries, want 1 (rebuilt from the WAL)", got)
	}
	tsB2 := httptest.NewServer(sB2.Handler())
	defer tsB2.Close()
	_, _, prB2 := postPlan(t, tsB2.URL, testRequest(2), nil)
	if prB2.Cached {
		t.Fatal("world B seed 2: unexpected cache hit after crash")
	}
	if got := sB2.Metrics().WarmStarts; got != 1 {
		t.Errorf("restarted warm_starts = %d, want 1 (near miss warms from the rebuilt index)", got)
	}
	if !bytes.Equal(prB2.Plan, prA2.Plan) {
		t.Errorf("post-crash warm plan differs from the uncrashed one\nA: %s\nB: %s",
			prA2.Plan, prB2.Plan)
	}
}

// TestAnytimePartialMonotone: a running async plan job exposes the
// search's best-so-far through GET-job polling, the published cost only
// ever improves (a worse OnBest callback is rejected), and the final
// result supersedes the partial.
func TestAnytimePartialMonotone(t *testing.T) {
	plan := stubPlan(t)
	published := make(chan struct{})
	release := make(chan struct{})
	s := New(Config{Workers: 1, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
		// 5 → 3 accepted, 4 rejected (worse than 3), 1 accepted.
		for _, cost := range []float64{5, 3, 4, 1} {
			o.OnBest(plan.Strategy, cost)
		}
		close(published)
		<-release
		return plan, nil
	}})
	defer s.Close()

	job, err := s.SubmitJob(testRequest(41))
	if err != nil {
		t.Fatal(err)
	}

	// Concurrent poller: every observed partial must be no worse than
	// the previous one (exercised under -race by `make race`).
	var pollWG sync.WaitGroup
	pollDone := make(chan struct{})
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		last := -1.0
		for {
			select {
			case <-pollDone:
				return
			default:
			}
			if j, ok := s.GetJob(job.ID); ok && j.Partial != nil {
				if last >= 0 && j.Partial.EstimatedIterationS > last {
					t.Errorf("partial cost regressed: %g after %g", j.Partial.EstimatedIterationS, last)
				}
				last = j.Partial.EstimatedIterationS
			}
		}
	}()

	<-published
	deadline := time.After(5 * time.Second)
	for {
		j, ok := s.GetJob(job.ID)
		if !ok {
			t.Fatal("job vanished while running")
		}
		if j.Status == JobRunning && j.Partial != nil {
			if j.Partial.EstimatedIterationS != 1 {
				t.Errorf("partial cost = %g, want 1 (the best published)", j.Partial.EstimatedIterationS)
			}
			if j.Partial.Updates != 3 {
				t.Errorf("partial updates = %d, want 3 (5, 3, 1 accepted; 4 rejected)", j.Partial.Updates)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("job never exposed a partial while running")
		case <-time.After(time.Millisecond):
		}
	}
	close(pollDone)
	pollWG.Wait()

	close(release)
	deadline = time.After(5 * time.Second)
	for {
		j, ok := s.GetJob(job.ID)
		if !ok {
			t.Fatal("job vanished after release")
		}
		if j.Status == JobDone {
			if j.Result == nil {
				t.Error("done job has no result")
			}
			if j.Partial != nil {
				t.Error("done job still exposes a partial (result must supersede it)")
			}
			break
		}
		select {
		case <-deadline:
			t.Fatalf("job stuck in %q", j.Status)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestWarmBootDecodesOnlyKept: a store holding more puts than the cache
// decodes only the newest CacheEntries that decode (an undecodable one
// among them is skipped, one older than them is never read) and ends
// with the same cache keys, recency order and similarity index as
// replaying every record through the LRU.
func TestWarmBootDecodesOnlyKept(t *testing.T) {
	const keep = 4
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plan := stubPlan(t)
	put := func(fp string, seed int64) {
		var payload any = plan // legacy record: bare plan, no request
		if seed > 0 {
			req := canonical(testRequest(seed))
			payload = storedPlan{Request: &req, Plan: plan}
		}
		if seed < 0 {
			payload = "torn" // valid JSON, not a plan
		}
		b, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.wal.Append(wal.Record{Op: wal.OpPut, Kind: kindPlan, Fp: fp, Payload: b}); err != nil {
			t.Fatal(err)
		}
	}
	for i, seed := range []int64{1, -1, 2, 0, 4, 5, 6, -1, 0, 9} {
		put(fmt.Sprintf("f%d", i), seed)
	}

	// Reference: every put replayed through an LRU of the same bound.
	ref, refSim := newPlanCache(keep), newSimIndex()
	ref.onEvict = refSim.remove
	for _, r := range st.wal.Records() {
		if v, req, err := decodeStored(r.Kind, r.Payload); err == nil {
			ref.add(r.Fp, v)
			if req != nil {
				refSim.add(r.Fp, *req)
			}
		}
	}

	s := New(Config{Workers: 1, CacheEntries: keep, Store: st,
		Optimize: func(context.Context, *topoopt.Model, topoopt.Options) (*topoopt.Plan, error) {
			t.Error("warm boot must not search")
			return plan, nil
		}})
	defer s.Close()
	keys := func(c *planCache) []string {
		var out []string
		for el := c.ll.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*cacheEntry).key)
		}
		return out
	}
	s.mu.Lock()
	got, gotBuckets, gotByFp := keys(s.cache), s.sim.buckets, s.sim.byFp
	s.mu.Unlock()
	if want := []string{"f9", "f8", "f6", "f5"}; !reflect.DeepEqual(got, want) || !reflect.DeepEqual(keys(ref), want) {
		t.Fatalf("cache keys newest-first %v, full replay %v, want %v", got, keys(ref), want)
	}
	if !reflect.DeepEqual(gotBuckets, refSim.buckets) || !reflect.DeepEqual(gotByFp, refSim.byFp) {
		t.Fatalf("similarity index differs from full replay:\ngot  %v\nwant %v", gotByFp, refSim.byFp)
	}
	m := s.Metrics()
	if m.WarmedEntries != keep || m.StoreErrors != 1 || m.SimIndexEntries != 3 {
		t.Fatalf("warmed_entries=%d store_errors=%d sim_index_entries=%d, want %d, 1 (the tail record only), 3",
			m.WarmedEntries, m.StoreErrors, m.SimIndexEntries, keep)
	}
}
