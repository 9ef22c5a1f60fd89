package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"

	"topoopt"
	"topoopt/internal/serve"
)

// faults collects the first few failed checks of a run for the report.
type faults []string

func (f *faults) add(format string, args ...any) {
	if len(*f) < 20 {
		*f = append(*f, fmt.Sprintf(format, args...))
	}
}

// storeIndex maps each boot-store request's fingerprint to its plan.
func storeIndex(in *inputs, plans []*topoopt.Plan) map[string]*topoopt.Plan {
	byFp := make(map[string]*topoopt.Plan, len(plans))
	for i, pr := range in.store {
		byFp[pr.Fingerprint()] = plans[i]
	}
	return byFp
}

// optimize resolves a plan request and runs topoopt.Optimize on it.
func optimize(pr serve.PlanRequest) (*topoopt.Plan, error) {
	m, err := pr.Model.Resolve()
	if err != nil {
		return nil, err
	}
	return topoopt.Optimize(m, pr.Options)
}

// forEach runs f(0..n-1) on `workers` goroutines and returns the first
// error.
func forEach(n, workers int, f func(i int) error) error {
	var (
		mu    sync.Mutex
		first error
		next  int
		wg    sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := i >= n || first != nil
				mu.Unlock()
				if stop {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// buildStore writes the boot store to dir: every request is planned with
// topoopt.Optimize, then the plans are persisted in request order through
// the planning service's own store path (so the records carry the
// canonical request the similarity index is rebuilt from), and the store
// is compacted as a clean shutdown would leave it. It returns the plans.
func buildStore(dir string, reqs []serve.PlanRequest, workers int) ([]*topoopt.Plan, error) {
	plans := make([]*topoopt.Plan, len(reqs))
	err := forEach(len(reqs), workers, func(i int) error {
		p, err := optimize(reqs[i])
		if err != nil {
			return fmt.Errorf("planning store entry %d: %w", i, err)
		}
		plans[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	st, err := serve.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	// The service asks its planner for exactly one plan per Plan call, in
	// call order; handing back the precomputed plan keeps the store's
	// record order and contents deterministic.
	cur := 0
	svc := serve.New(serve.Config{Workers: 1, CacheEntries: len(reqs), Store: st,
		Optimize: func(context.Context, *topoopt.Model, topoopt.Options) (*topoopt.Plan, error) {
			return plans[cur], nil
		}})
	for cur = range reqs {
		if _, _, _, err := svc.Plan(context.Background(), reqs[cur]); err != nil {
			svc.Close()
			return nil, fmt.Errorf("persisting store entry %d: %w", cur, err)
		}
	}
	svc.Close()
	return plans, nil
}

// planResponse encodes the /v1/plan response the daemon sends for a plan,
// byte for byte as its handler writes it.
func planResponse(fp string, cached bool, p *topoopt.Plan) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(serve.PlanResponse{Fingerprint: fp, Cached: cached, Plan: p})
	return buf.Bytes(), err
}
