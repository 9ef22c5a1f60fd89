package telemetry

import (
	"sort"

	"topoopt/internal/stats"
)

// Window is a bounded ring of recent observations plus all-time
// count/sum totals, so quantiles and the mean track recent behavior
// while Count and SumSeconds stay monotonic the way Prometheus summaries
// require. Build one with NewWindow. Not safe for concurrent use:
// callers hold their own lock.
type Window struct {
	buf    []float64 // len grows to cap, the window size, then wraps
	pos    int
	count  int64
	sum    float64
	winSum float64 // running sum of buf, so Mean is O(1)
}

// NewWindow returns a Window over the most recent size observations.
func NewWindow(size int) Window {
	return Window{buf: make([]float64, 0, size)}
}

// Observe records one observation, evicting the oldest once the window
// is full.
func (w *Window) Observe(v float64) {
	if len(w.buf) < cap(w.buf) {
		w.buf = append(w.buf, v)
	} else {
		w.winSum -= w.buf[w.pos]
		w.buf[w.pos] = v
		w.pos = (w.pos + 1) % len(w.buf)
	}
	w.winSum += v
	w.count++
	w.sum += v
}

// Mean returns the mean of the windowed observations, or 0 before the
// first one.
func (w *Window) Mean() float64 {
	if len(w.buf) == 0 {
		return 0
	}
	return w.winSum / float64(len(w.buf))
}

// StageSummary is the quantile view of one Window: Count and SumSeconds
// are all-time totals; quantiles are over the recent window.
type StageSummary struct {
	Count      int64   `json:"count"`
	SumSeconds float64 `json:"sum_seconds"`
	P50Seconds float64 `json:"p50_seconds"`
	P90Seconds float64 `json:"p90_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
	MaxSeconds float64 `json:"max_seconds"`
}

// Summary returns the all-time totals and the window's quantiles, all
// read from one sorted copy.
func (w *Window) Summary() StageSummary {
	s := StageSummary{Count: w.count, SumSeconds: w.sum}
	if len(w.buf) > 0 {
		sorted := append([]float64(nil), w.buf...)
		sort.Float64s(sorted)
		s.P50Seconds = stats.PercentileSorted(sorted, 50)
		s.P90Seconds = stats.PercentileSorted(sorted, 90)
		s.P99Seconds = stats.PercentileSorted(sorted, 99)
		s.MaxSeconds = sorted[len(sorted)-1]
	}
	return s
}

// StageSummaries returns the quantile summary of every stage that has
// at least one observation, keyed by stage label.
func (r *Registry) StageSummaries() map[string]StageSummary {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]StageSummary)
	for s := Stage(0); s < NumStages; s++ {
		if r.stages[s].count > 0 {
			out[stageNames[s]] = r.stages[s].Summary()
		}
	}
	return out
}

// StageNames returns the summary's keys in stable enum order — the
// iteration order every deterministic renderer (Prometheus exposition)
// must use.
func StageNames(m map[string]StageSummary) []string {
	names := make([]string, 0, len(m))
	for s := Stage(0); s < NumStages; s++ {
		if _, ok := m[stageNames[s]]; ok {
			names = append(names, stageNames[s])
		}
	}
	// Forward-compatible: keys that are not stage labels (none today)
	// sort after the enum block rather than vanishing.
	if len(names) < len(m) {
		known := make(map[string]bool, len(names))
		for _, n := range names {
			known[n] = true
		}
		var extra []string
		for k := range m {
			if !known[k] {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		names = append(names, extra...)
	}
	return names
}
