package serve

import (
	"sync"
	"sync/atomic"

	"topoopt/internal/telemetry"
)

// latencyWindow bounds the latency and service-time windows: large
// enough for stable tails, small enough that a long-lived daemon's
// /metrics reflects recent behavior.
const latencyWindow = 1024

// endpointNames is the fixed set of request counters. The per-endpoint
// map is built once in newMetrics and never mutated afterwards, so
// incRequest is a lock-free map read plus an atomic add.
var endpointNames = []string{
	"plan", "compare", "cost", "fleet", "sweep",
	"jobs_submit", "jobs_list", "jobs_get", "jobs_cancel",
	"cluster",
}

// metrics aggregates service counters. Hot counters — everything bumped
// on the cache-hit fast path or per request — are plain atomics so the
// serving path never takes a metrics lock; the mutex guards only the
// latency and service-time windows, which are touched once per
// completed request or optimization.
type metrics struct {
	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	optimized atomic.Int64
	queueFull atomic.Int64
	shed      atomic.Int64
	storeErrs atomic.Int64
	// proposals counts MCMC proposals consumed across all searches, fed
	// by the engine's epoch barriers (Options.Progress). Rate over time
	// is the daemon's search throughput.
	proposals atomic.Int64
	// warmStarts counts searches seeded from the plan-similarity index;
	// warmImproved counts the subset whose seed strictly beat the
	// canonical start states (on real fabrics the canonical hybrid is
	// usually already optimal, so the win is the patience time saving and
	// warmImproved staying near zero is expected, not a bug).
	warmStarts atomic.Int64
	warmWins   atomic.Int64
	requests   map[string]*atomic.Int64 // fixed keys; see endpointNames

	// Sharded-cluster forwarding counters. The per-peer maps are built
	// once by initPeers (EnableCluster, before traffic) and never mutated
	// afterwards, same lock-free discipline as requests. forwarded counts
	// requests this daemon proxied to each owner; forwardFallback counts
	// proxy attempts that failed over to local compute; fwdServed counts
	// requests served here that arrived via a peer's forward.
	forwarded   map[string]*atomic.Int64
	forwardFail map[string]*atomic.Int64
	fwdServed   atomic.Int64

	mu  sync.Mutex       // guards the windows below, nothing else
	lat telemetry.Window // end-to-end request latency
	svc telemetry.Window // wall time of completed searches
}

func newMetrics() *metrics {
	m := &metrics{
		requests: make(map[string]*atomic.Int64, len(endpointNames)),
		lat:      telemetry.NewWindow(latencyWindow),
		svc:      telemetry.NewWindow(latencyWindow),
	}
	for _, e := range endpointNames {
		m.requests[e] = new(atomic.Int64)
	}
	return m
}

func (m *metrics) incRequest(endpoint string) {
	if c, ok := m.requests[endpoint]; ok {
		c.Add(1)
	}
}

func (m *metrics) cacheHit()      { m.hits.Add(1) }
func (m *metrics) cacheMiss()     { m.misses.Add(1) }
func (m *metrics) coalesce()      { m.coalesced.Add(1) }
func (m *metrics) optimizedDone() { m.optimized.Add(1) }
func (m *metrics) queueFullDrop() { m.queueFull.Add(1) }
func (m *metrics) shedDrop()      { m.shed.Add(1) }
func (m *metrics) storeError()    { m.storeErrs.Add(1) }
func (m *metrics) warmStart()     { m.warmStarts.Add(1) }
func (m *metrics) warmImproved()  { m.warmWins.Add(1) }

// initPeers fixes the per-peer forwarding counter maps. Called once
// from EnableCluster before the service takes traffic.
func (m *metrics) initPeers(peers []string) {
	fwd := make(map[string]*atomic.Int64, len(peers))
	fail := make(map[string]*atomic.Int64, len(peers))
	for _, p := range peers {
		fwd[p] = new(atomic.Int64)
		fail[p] = new(atomic.Int64)
	}
	m.forwarded = fwd
	m.forwardFail = fail
}

func (m *metrics) forwardTo(peer string) {
	if c, ok := m.forwarded[peer]; ok {
		c.Add(1)
	}
}

func (m *metrics) forwardFallback(peer string) {
	if c, ok := m.forwardFail[peer]; ok {
		c.Add(1)
	}
}

func (m *metrics) forwardedServed() { m.fwdServed.Add(1) }

func (m *metrics) forwardedTo(peer string) int64 {
	if c, ok := m.forwarded[peer]; ok {
		return c.Load()
	}
	return 0
}

func (m *metrics) fallbacksTo(peer string) int64 {
	if c, ok := m.forwardFail[peer]; ok {
		return c.Load()
	}
	return 0
}

// addProposals folds an epoch's worth of consumed MCMC proposals into
// the throughput counter.
func (m *metrics) addProposals(n int64) {
	if n > 0 {
		m.proposals.Add(n)
	}
}

// observeService records the wall time of one completed search (flight
// or compare run). The admission controller's shed decision multiplies
// the mean of this window by the queue depth to estimate how long a
// newly queued request would wait.
func (m *metrics) observeService(seconds float64) {
	m.mu.Lock()
	m.svc.Observe(seconds)
	m.mu.Unlock()
}

// meanService returns the mean observed service time in seconds, or 0
// when nothing has been observed yet (a cold service never sheds). O(1):
// the window keeps a running sum.
func (m *metrics) meanService() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.svc.Mean()
}

func (m *metrics) observeLatency(seconds float64) {
	m.mu.Lock()
	m.lat.Observe(seconds)
	m.mu.Unlock()
}

// LatencySummary reports quantiles over the recent-request window.
// Count and SumSeconds are all-time totals (monotonic, as Prometheus
// summaries require); the mean and quantiles cover the recent window.
type LatencySummary struct {
	Count       int64   `json:"count"`
	SumSeconds  float64 `json:"sum_seconds"`
	MeanSeconds float64 `json:"mean_seconds"`
	P50Seconds  float64 `json:"p50_seconds"`
	P90Seconds  float64 `json:"p90_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	MaxSeconds  float64 `json:"max_seconds"`
}

// MetricsSnapshot is the /v1/metrics response body; WriteMetricsText
// renders the same snapshot as Prometheus text exposition at /metrics.
type MetricsSnapshot struct {
	Requests      map[string]int64 `json:"requests"`
	CacheHits     int64            `json:"cache_hits"`
	CacheMisses   int64            `json:"cache_misses"`
	CacheEntries  int              `json:"cache_entries"`
	Coalesced     int64            `json:"coalesced"`
	Optimizations int64            `json:"optimizations"`
	InFlight      int              `json:"in_flight"`
	QueueDepth    int              `json:"queue_depth"`
	QueueCapacity int              `json:"queue_capacity"`
	QueueFull     int64            `json:"queue_full"`
	Shed          int64            `json:"shed"`
	StoreErrors   int64            `json:"store_errors"`
	JobsTracked   int              `json:"jobs_tracked"`
	WarmedEntries int              `json:"warmed_entries"`
	Draining      bool             `json:"draining"`
	Latency       LatencySummary   `json:"latency"`

	// MeanServiceSeconds is the mean wall time of recent completed
	// searches — the admission controller's service-time estimate.
	MeanServiceSeconds float64 `json:"mean_service_seconds"`

	// MCMCProposals counts search proposals consumed across all requests,
	// reported by the engine's epoch barriers.
	MCMCProposals int64 `json:"mcmc_proposals"`

	// WarmStarts counts searches seeded from the plan-similarity index;
	// WarmStartImproved is the subset whose seed strictly beat the
	// canonical start states. SimIndexEntries gauges the index size
	// (always ≤ CacheEntries: index entries die with their cached plan).
	WarmStarts        int64 `json:"warm_starts"`
	WarmStartImproved int64 `json:"warm_start_improved"`
	SimIndexEntries   int   `json:"sim_index_entries"`

	// Stages holds per-stage latency quantiles (decode, admission, cache,
	// queue, search, persist, encode) over recent traced requests.
	Stages map[string]telemetry.StageSummary `json:"stages,omitempty"`

	// Sharded-cluster forwarding counters (present only on a daemon with
	// EnableCluster): requests proxied to each owning peer, proxy
	// attempts that fell back to local compute, and requests served here
	// that arrived via a peer's forward.
	Forwarded        map[string]int64 `json:"forwarded,omitempty"`
	ForwardFallbacks map[string]int64 `json:"forward_fallbacks,omitempty"`
	ForwardedServed  int64            `json:"forwarded_served,omitempty"`
}

// snapshot copies the counters; cache/queue/job gauges and the stage
// summaries are filled in by the Service, which owns those structures.
func (m *metrics) snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Requests:          make(map[string]int64, len(m.requests)),
		CacheHits:         m.hits.Load(),
		CacheMisses:       m.misses.Load(),
		Coalesced:         m.coalesced.Load(),
		Optimizations:     m.optimized.Load(),
		QueueFull:         m.queueFull.Load(),
		Shed:              m.shed.Load(),
		StoreErrors:       m.storeErrs.Load(),
		MCMCProposals:     m.proposals.Load(),
		WarmStarts:        m.warmStarts.Load(),
		WarmStartImproved: m.warmWins.Load(),
	}
	for k, c := range m.requests {
		if v := c.Load(); v > 0 {
			s.Requests[k] = v
		}
	}
	if len(m.forwarded) > 0 {
		s.Forwarded = make(map[string]int64, len(m.forwarded))
		s.ForwardFallbacks = make(map[string]int64, len(m.forwardFail))
		for p, c := range m.forwarded {
			s.Forwarded[p] = c.Load()
		}
		for p, c := range m.forwardFail {
			s.ForwardFallbacks[p] = c.Load()
		}
		s.ForwardedServed = m.fwdServed.Load()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s.MeanServiceSeconds = m.svc.Mean()
	if q := m.lat.Summary(); q.Count > 0 {
		s.Latency = LatencySummary{
			Count:       q.Count,
			SumSeconds:  q.SumSeconds,
			MeanSeconds: m.lat.Mean(),
			P50Seconds:  q.P50Seconds,
			P90Seconds:  q.P90Seconds,
			P99Seconds:  q.P99Seconds,
			MaxSeconds:  q.MaxSeconds,
		}
	}
	return s
}
