package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"topoopt"
	"topoopt/internal/slo"
)

// BenchmarkServeCacheHit measures the serving hot path: POST /v1/plan for
// a fingerprint already in the cache — HTTP handling, request decode +
// validation, cache lookup and the write of the plan's stored bytes, no
// optimization and no encode. Recorded into BENCH_serve.json by
// `make serve-bench`.
func BenchmarkServeCacheHit(b *testing.B) {
	benchCacheHit(b, stubPlan(b), testRequest(1))
}

// BenchmarkServeCacheHitLarge is BenchmarkServeCacheHit at paper scale: a
// real 128-server plan, about 800 KB per response. A hit writes stored
// bytes, so only the transfer grows with the plan.
func BenchmarkServeCacheHitLarge(b *testing.B) {
	benchCacheHit(b, mustLargePlan(b), largeRequest())
}

// benchCacheHit times POST /v1/plan hits on a service that holds plan.
func benchCacheHit(b *testing.B, plan *topoopt.Plan, req PlanRequest) {
	s := New(Config{Workers: 2, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
		return plan, nil
	}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	client := ts.Client()
	warm, err := client.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, warm.Body)
	warm.Body.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// BenchmarkServeCoalesce measures coalescing under concurrency: each
// round fires 16 identical uncached requests; the service must collapse
// them onto one (simulated 100 µs) optimization. ns/op ≈ one optimization
// plus the full coordination overhead for all 16 waiters.
func BenchmarkServeCoalesce(b *testing.B) {
	const fanout = 16
	plan := stubPlan(b)
	s := New(Config{Workers: 4, QueueLen: 64, CacheEntries: 4, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
		time.Sleep(100 * time.Microsecond)
		return plan, nil
	}})
	defer s.Close()
	ctx := context.Background()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := testRequest(int64(i) + 1000) // fresh fingerprint every round
		var wg sync.WaitGroup
		for j := 0; j < fanout; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, _, err := s.Plan(ctx, req); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	m := s.Metrics()
	if got := m.Optimizations; got != int64(b.N) {
		b.Fatalf("ran %d optimizations for %d rounds: coalescing broken", got, b.N)
	}
}

// BenchmarkServeCacheHitParallel hammers the cache-hit path from many
// concurrent goroutines calling Service.Plan directly (no HTTP), to
// expose Service.mu — the lock every hit takes for the LRU bump and
// flight-map check — under far higher client counts than the HTTP
// benchmark reaches. Run with -mutexprofilefraction to measure the
// lock's contribution; the EXPERIMENTS.md contention harvest records
// the verdict.
func BenchmarkServeCacheHitParallel(b *testing.B) {
	plan := stubPlan(b)
	s := New(Config{Workers: 2, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
		return plan, nil
	}})
	defer s.Close()
	ctx := context.Background()
	req := testRequest(1)
	if _, _, _, err := s.Plan(ctx, req); err != nil { // warm the cache
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.SetParallelism(64) // 64 goroutines per core
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, cached, err := s.Plan(ctx, req); err != nil || !cached {
				b.Errorf("cached=%v err=%v", cached, err)
			}
		}
	})
}

// BenchmarkServeFingerprint measures request fingerprinting, which sits
// on every request including cache hits.
func BenchmarkServeFingerprint(b *testing.B) {
	req := testRequest(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if req.Fingerprint() == "" {
			b.Fatal("empty fingerprint")
		}
	}
}

// BenchmarkServePlanEncode measures serializing a realistic Plan: the one
// encode every computed plan pays, whose bytes then feed its WAL record,
// its waiters and every later hit.
func BenchmarkServePlanEncode(b *testing.B) {
	plan := stubPlan(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeOpenLoopSLO drives the open-loop SLO engine (the one
// behind `planload -open-loop` and `make slo-smoke`) against an
// in-process daemon: Poisson arrivals at a fixed offered rate over short
// windows, requests cycling a small seed population so the load is
// mostly cache hits with a cold miss per seed. Each op runs sloWindows
// independent windows, arrival seeds 1..sloWindows, and the reported
// ns/op is the median of their overall p99 latencies: the p99 of one
// ~200-request window is a handful of samples, and one stall on a busy
// host moved it past the benchdiff bound about half the time.
func BenchmarkServeOpenLoopSLO(b *testing.B) {
	plan := stubPlan(b)
	s := New(Config{Workers: 4, QueueLen: 64, Optimize: func(ctx context.Context, m *topoopt.Model, o topoopt.Options) (*topoopt.Plan, error) {
		return plan, nil
	}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	const seeds = 8
	bodies := make([][]byte, seeds)
	for i := range bodies {
		body, err := json.Marshal(testRequest(int64(i + 1)))
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	client := ts.Client()

	fire := func(j int) slo.Result {
		resp, err := client.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader(bodies[j%seeds]))
		if err != nil {
			return slo.Result{Err: true}
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return slo.Result{Err: resp.StatusCode != http.StatusOK}
	}
	const sloWindows = 5
	p99s := make([]float64, sloWindows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := range p99s {
			rep, err := slo.Run(slo.Config{
				Rate: 500, Duration: 400 * time.Millisecond, Bucket: 100 * time.Millisecond,
				Seed: int64(w + 1), Fire: fire,
			})
			if err != nil {
				b.Fatal(err)
			}
			if rep.Errors > 0 {
				b.Fatalf("%d of %d open-loop requests failed", rep.Errors, rep.Requests)
			}
			p99s[w] = rep.Overall.P99Seconds
		}
	}
	slices.Sort(p99s)
	b.ReportMetric(p99s[sloWindows/2]*1e9, "ns/op")
}
