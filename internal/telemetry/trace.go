// Package telemetry is the observability core behind topooptd: request-
// scoped stage tracing, a ring buffer of recent request breakdowns
// (surfaced at /debug/requests), per-stage latency quantile windows
// folded into the service metrics, a search-progress counter fed by the
// MCMC engine's epoch barriers, and a hand-rolled Prometheus text-
// exposition writer (no external deps).
//
// The tracing hot path is allocation-free: Trace structs are pooled,
// stage durations accumulate into a fixed array indexed by the Stage
// enum, and publishing a finished trace copies a value-typed record into
// a preallocated ring under a mutex. Only rendering — the X-Trace
// response header, /debug/requests JSON, /metrics exposition — pays for
// allocation, and only on the requests that ask for it.
package telemetry

import (
	"strconv"
	"sync"
	"time"
)

// Stage names one phase of a request's life inside the planning service.
// The enum is the schema of every per-stage surface: trace spans, the
// /debug/requests breakdowns, the stage-quantile windows and the
// Prometheus stage summary all index by it.
type Stage uint8

const (
	// StageDecode is request decode, validation and model resolution.
	StageDecode Stage = iota
	// StageAdmission is the load-shedding admission check.
	StageAdmission
	// StageCache is cache lookup plus the singleflight join attempt.
	StageCache
	// StageQueue is the wait from enqueue until a worker picks the
	// flight up (clipped to the waiter's own wait window).
	StageQueue
	// StageSearch is the MCMC optimization itself (clipped likewise).
	StageSearch
	// StagePersist is the encode and write-ahead-log append of a
	// completed result, which happen before any waiter is released
	// (clipped likewise; a daemon without a store never books it).
	StagePersist
	// StageEncode is the response write: the result's canonical bytes,
	// encoded here only when no store encoded them first.
	StageEncode
	// NumStages bounds the enum; keep it last.
	NumStages
)

var stageNames = [NumStages]string{
	"decode", "admission", "cache", "queue", "search", "persist", "encode",
}

// String returns the stable lowercase stage label used in headers,
// JSON breakdowns and Prometheus labels.
func (s Stage) String() string {
	if s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// Trace accumulates one request's stage durations. Obtain with
// Registry.Begin, close stages with Start/End or add externally measured
// durations with Add, and call Finish exactly once to publish the trace
// and recycle the struct. All methods are nil-safe so untraced call
// paths can share the instrumented code without branching.
//
// A Trace is owned by one goroutine; durations measured on other
// goroutines (queue wait, search time) enter through Add after the
// owner observes their completion.
type Trace struct {
	reg         *Registry
	t0          time.Time
	endpoint    string
	open        Stage
	opened      bool
	openStart   time.Time
	durs        [NumStages]time.Duration
	searchDone  int64
	searchTotal int64
	warm        bool
}

// Start opens a stage at now, closing any stage still open.
func (t *Trace) Start(s Stage) {
	if t == nil || s >= NumStages {
		return
	}
	now := time.Now()
	if t.opened {
		t.durs[t.open] += now.Sub(t.openStart)
	}
	t.open, t.opened, t.openStart = s, true, now
}

// End closes the currently open stage, if any.
func (t *Trace) End() {
	if t == nil || !t.opened {
		return
	}
	t.durs[t.open] += time.Since(t.openStart)
	t.opened = false
}

// Add folds an externally measured duration into a stage. Negative
// durations are ignored.
func (t *Trace) Add(s Stage, d time.Duration) {
	if t == nil || s >= NumStages || d <= 0 {
		return
	}
	t.durs[s] += d
}

// SetSearchProgress records the MCMC proposals completed/budgeted for
// the search this request rode on (from the engine's epoch barriers).
func (t *Trace) SetSearchProgress(done, total int64) {
	if t == nil {
		return
	}
	t.searchDone, t.searchTotal = done, total
}

// SetWarm marks that the search this request rode on was warm-started
// from the plan-similarity index.
func (t *Trace) SetWarm(warm bool) {
	if t == nil {
		return
	}
	t.warm = warm
}

// AppendHeader appends the X-Trace summary — "total=…;stage=…;…", stages
// in enum order, zero stages omitted, microsecond precision — to b and
// returns it. An open stage is included up to now without closing it.
func (t *Trace) AppendHeader(b []byte) []byte {
	if t == nil {
		return b
	}
	b = append(b, "total="...)
	b = appendMicros(b, time.Since(t.t0))
	for s := Stage(0); s < NumStages; s++ {
		d := t.durs[s]
		if t.opened && t.open == s {
			d += time.Since(t.openStart)
		}
		if d <= 0 {
			continue
		}
		b = append(b, ';')
		b = append(b, stageNames[s]...)
		b = append(b, '=')
		b = appendMicros(b, d)
	}
	return b
}

// appendMicros renders d as decimal microseconds ("1234.5us").
func appendMicros(b []byte, d time.Duration) []byte {
	us := d.Microseconds()
	b = strconv.AppendInt(b, us, 10)
	tenth := (d.Nanoseconds() - us*1000) / 100
	if tenth > 0 {
		b = append(b, '.')
		b = strconv.AppendInt(b, tenth, 10)
	}
	return append(b, "us"...)
}

// Finish closes any open stage, publishes the trace into the registry's
// ring and stage-quantile windows, and returns the struct to the pool.
// The Trace must not be used afterwards. status is the HTTP status the
// request resolved with; cached marks cache-hit responses.
func (t *Trace) Finish(fingerprint string, cached bool, status int) {
	if t == nil {
		return
	}
	t.End()
	if t.reg != nil {
		t.reg.publish(t, fingerprint, cached, status)
	}
	t.reset()
	tracePool.Put(t)
}

func (t *Trace) reset() {
	*t = Trace{}
}

var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// Registry owns the telemetry state of one service: the pool-backed
// trace lifecycle, the ring of recent request records and the per-stage
// latency windows. All methods are safe for concurrent use.
type Registry struct {
	mu     sync.Mutex
	ring   []record
	pos    int
	filled bool
	stages [NumStages]Window
}

// DefaultRingSize is the /debug/requests capacity when NewRegistry is
// given a non-positive size.
const DefaultRingSize = 128

// stageWindow bounds the per-stage quantile ring: recent-behavior
// quantiles, same philosophy as the service's latency window.
const stageWindow = 512

// NewRegistry returns a Registry whose request ring holds the last
// ringSize completed requests (DefaultRingSize when ≤ 0).
func NewRegistry(ringSize int) *Registry {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	r := &Registry{ring: make([]record, ringSize)}
	for s := range r.stages {
		r.stages[s] = NewWindow(stageWindow)
	}
	return r
}

// Begin starts a pooled trace for one request against endpoint. The
// returned Trace must be resolved with Finish.
func (r *Registry) Begin(endpoint string) *Trace {
	if r == nil {
		return nil
	}
	t := tracePool.Get().(*Trace)
	t.reg = r
	t.t0 = time.Now()
	t.endpoint = endpoint
	return t
}

// record is the ring's value-typed entry: fixed-size so publishing a
// trace never allocates.
type record struct {
	at          time.Time
	endpoint    string
	fingerprint string
	cached      bool
	status      int
	total       time.Duration
	durs        [NumStages]time.Duration
	searchDone  int64
	searchTotal int64
	warm        bool
}

// publish copies a finished trace into the ring and its stage durations
// into the quantile windows.
func (r *Registry) publish(t *Trace, fingerprint string, cached bool, status int) {
	total := time.Since(t.t0)
	r.mu.Lock()
	rec := &r.ring[r.pos]
	rec.at = time.Now()
	rec.endpoint = t.endpoint
	rec.fingerprint = fingerprint
	rec.cached = cached
	rec.status = status
	rec.total = total
	rec.durs = t.durs
	rec.searchDone, rec.searchTotal = t.searchDone, t.searchTotal
	rec.warm = t.warm
	r.pos++
	if r.pos == len(r.ring) {
		r.pos, r.filled = 0, true
	}
	for s := Stage(0); s < NumStages; s++ {
		if d := t.durs[s]; d > 0 {
			r.stages[s].Observe(d.Seconds())
		}
	}
	r.mu.Unlock()
}

// StageSpan is one stage of a request breakdown as served by
// /debug/requests.
type StageSpan struct {
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
}

// Record is the exported form of one completed request's breakdown,
// newest first in Requests.
type Record struct {
	Time            time.Time   `json:"time"`
	Endpoint        string      `json:"endpoint"`
	Fingerprint     string      `json:"fingerprint,omitempty"`
	Cached          bool        `json:"cached"`
	Status          int         `json:"status"`
	TotalSeconds    float64     `json:"total_seconds"`
	StageSumSeconds float64     `json:"stage_sum_seconds"`
	Stages          []StageSpan `json:"stages"`
	SearchDone      int64       `json:"search_done,omitempty"`
	SearchTotal     int64       `json:"search_total,omitempty"`
	// Warm marks requests whose search was warm-started from the
	// plan-similarity index.
	Warm bool `json:"warm,omitempty"`
}

// Requests snapshots the ring, newest first. The copies are detached:
// callers can serialize them without holding any registry state.
func (r *Registry) Requests() []Record {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	n := r.pos
	if r.filled {
		n = len(r.ring)
	}
	out := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		// Walk backwards from the most recently written slot.
		idx := (r.pos - 1 - i + len(r.ring)) % len(r.ring)
		rec := &r.ring[idx]
		er := Record{
			Time:         rec.at,
			Endpoint:     rec.endpoint,
			Fingerprint:  rec.fingerprint,
			Cached:       rec.cached,
			Status:       rec.status,
			TotalSeconds: rec.total.Seconds(),
			SearchDone:   rec.searchDone,
			SearchTotal:  rec.searchTotal,
			Warm:         rec.warm,
		}
		for s := Stage(0); s < NumStages; s++ {
			if d := rec.durs[s]; d > 0 {
				er.Stages = append(er.Stages, StageSpan{Stage: stageNames[s], Seconds: d.Seconds()})
				er.StageSumSeconds += d.Seconds()
			}
		}
		out = append(out, er)
	}
	r.mu.Unlock()
	return out
}
