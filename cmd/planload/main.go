// Command planload is the load generator and SLO harness for topooptd.
// Every load runs on the internal/slo engine, in one of three modes:
//
// Closed loop (the default) fires -n POST /v1/plan requests from -c
// workers, each waiting for its reply before sending the next.
//
// Open loop (-open-loop -rate R -duration D) offers requests on a
// seeded Poisson arrival schedule that never waits for responses, so a
// saturated server faces the full offered rate instead of a politely
// self-throttling worker pool.
//
// Saturation (-saturate -rate-min A -rate-max B) binary-searches the
// highest open-loop rate that still meets the gate, probing the bracket
// ends first and then bisecting -sat-iters times; the reported rate is
// always one the server was measured to sustain.
//
// Closed- and open-loop runs report time-bucketed p50/p99/p999
// latencies plus one row per request class — exact-hit, warm or cold
// for a success, the failure outcome otherwise — so retry/backoff time
// never skews the success numbers, and can be gated (-slo-p99,
// -max-errors): a failed gate exits nonzero, which is what
// `make slo-smoke` keys on. A text report continues with the HTTP
// statuses, the error taxonomy (connect / timeout / 4xx / 5xx /
// retry-exhausted) and each daemon's own /v1/metrics counters.
// -seeds spreads requests over several seeds to control the cache hit
// ratio, and -warm-mix fires a fraction of them as near-miss
// perturbations that exercise the server's similarity warm starts.
//
// -addr accepts a comma-separated list of daemons: requests round-robin
// across them, which is how a sharded topooptd cluster is loaded (any
// member accepts any request and forwards to the owner).
// -verify-identical POSTs one identical request to every listed daemon
// and requires the plan payloads to be byte-identical regardless of
// entry peer — the sharding correctness invariant.
//
// -json emits the run (or saturation) report as JSON; -bench appends
// `go test -bench`-style lines so the benchdiff ledger can ingest an
// SLO trajectory with the machinery it already has.
//
// Plan requests are idempotent (fingerprint-keyed and cached server
// side), so -retries re-sends failed requests with capped exponential
// backoff, honoring the server's Retry-After backpressure hints. The
// request path reads full response bodies inside the retry loop
// (clientretry.DoRead), so a connection torn down mid-body — a peer
// restarting under load — is retried like any connect failure instead
// of surfacing as a lost request.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"topoopt"
	"topoopt/internal/clientretry"
	"topoopt/internal/serve"
	"topoopt/internal/slo"
)

// runConfig is the parsed flag surface of one planload invocation. The
// embedded slo.Config carries the load shape: -n/-c (Requests/Clients)
// for a closed loop, -rate/-duration for an open loop, and -bucket and
// -slo-seed for both.
type runConfig struct {
	Addrs []string
	slo.Config

	Model     string
	Section   string
	Servers   int
	Degree    int
	Bandwidth float64
	MCMC      int
	Rounds    int
	Parallel  int
	Seeds     int
	WarmMix   float64
	Retries   int
	Backoff   time.Duration
	Sweep     int
	Scenario  string

	OpenLoop  bool
	SLOP99    time.Duration
	MaxErrors int

	Saturate bool
	RateMin  float64
	RateMax  float64
	SatIters int

	JSONOut     bool
	Bench       bool
	BenchPrefix string
	Verify      bool
}

func parseFlags(args []string) (runConfig, error) {
	var cfg runConfig
	fs := flag.NewFlagSet("planload", flag.ContinueOnError)
	addr := fs.String("addr", "http://localhost:7070", "topooptd base URL, or a comma-separated list to round-robin across a sharded cluster")
	fs.IntVar(&cfg.Requests, "n", 100, "total requests (closed-loop mode)")
	fs.IntVar(&cfg.Clients, "c", 8, "concurrent clients (closed-loop mode)")
	fs.StringVar(&cfg.Model, "model", "bert", "workload preset")
	fs.StringVar(&cfg.Section, "section", "6", "preset section: 5.3, 5.6 or 6")
	fs.IntVar(&cfg.Servers, "servers", 12, "servers (n)")
	fs.IntVar(&cfg.Degree, "degree", 4, "interfaces per server (d)")
	fs.Float64Var(&cfg.Bandwidth, "bandwidth", 25, "per-interface bandwidth in Gbps")
	fs.IntVar(&cfg.MCMC, "mcmc", 30, "MCMC iterations per round (total across chains)")
	fs.IntVar(&cfg.Rounds, "rounds", 1, "alternating-optimization rounds")
	fs.IntVar(&cfg.Parallel, "parallel", 0, "parallel MCMC chains per request (0 = server default of 1)")
	fs.IntVar(&cfg.Seeds, "seeds", 1, "distinct seeds to cycle through (1 = all identical)")
	fs.Float64Var(&cfg.WarmMix, "warm-mix", 0, "fraction of plan requests fired as near-miss perturbations (same model and servers, offset seed) that exercise the server's similarity warm starts")
	fs.IntVar(&cfg.Retries, "retries", 0, "retries per failed request (plan requests are idempotent)")
	fs.DurationVar(&cfg.Backoff, "backoff", 100*time.Millisecond, "base retry backoff (doubles per retry, jittered)")
	fs.IntVar(&cfg.Sweep, "sweep", 0, "fire K-replica POST /v1/sweep requests instead of plans")
	fs.StringVar(&cfg.Scenario, "scenario", "steady", "fleet scenario preset for -sweep requests")

	fs.BoolVar(&cfg.OpenLoop, "open-loop", false, "offer requests on a Poisson schedule at -rate instead of the closed worker pool")
	fs.Float64Var(&cfg.Rate, "rate", 0, "offered arrival rate in req/s (open-loop mode)")
	fs.DurationVar(&cfg.Duration, "duration", 10*time.Second, "open-loop run duration")
	fs.DurationVar(&cfg.Bucket, "bucket", time.Second, "latency bucketing period")
	fs.Int64Var(&cfg.Seed, "slo-seed", 1, "arrival-schedule seed (deterministic per (rate, duration, seed))")
	fs.DurationVar(&cfg.SLOP99, "slo-p99", 0, "SLO gate: fail (exit 1) when overall p99 exceeds this (0 = no latency gate)")
	fs.IntVar(&cfg.MaxErrors, "max-errors", -1, "SLO gate: fail when errors exceed this (-1 = no error gate)")

	fs.BoolVar(&cfg.Saturate, "saturate", false, "binary-search the highest rate meeting the SLO gate")
	fs.Float64Var(&cfg.RateMin, "rate-min", 1, "saturation search bracket minimum (req/s)")
	fs.Float64Var(&cfg.RateMax, "rate-max", 500, "saturation search bracket maximum (req/s)")
	fs.IntVar(&cfg.SatIters, "sat-iters", 5, "saturation search bisection steps after the bracket probes")

	fs.BoolVar(&cfg.JSONOut, "json", false, "emit the run or saturation report as JSON")
	fs.BoolVar(&cfg.Bench, "bench", false, "append go-test-bench-style lines for the benchdiff ledger")
	fs.StringVar(&cfg.BenchPrefix, "bench-prefix", "ServeSLO", "benchmark name prefix for -bench lines")
	fs.BoolVar(&cfg.Verify, "verify-identical", false, "POST one identical request to every -addr and require byte-identical plans")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}

	for _, a := range strings.Split(*addr, ",") {
		a = strings.TrimRight(strings.TrimSpace(a), "/")
		if a == "" {
			return cfg, fmt.Errorf("-addr has an empty entry")
		}
		cfg.Addrs = append(cfg.Addrs, a)
	}
	if cfg.Requests <= 0 || cfg.Clients <= 0 || cfg.Seeds <= 0 {
		return cfg, fmt.Errorf("-n, -c and -seeds must be positive")
	}
	if cfg.Retries < 0 {
		return cfg, fmt.Errorf("-retries must be non-negative")
	}
	if cfg.WarmMix < 0 || cfg.WarmMix > 1 {
		return cfg, fmt.Errorf("-warm-mix must be in [0, 1]")
	}
	if cfg.WarmMix > 0 && cfg.Sweep > 0 {
		return cfg, fmt.Errorf("-warm-mix applies to plan loads only")
	}
	if cfg.OpenLoop && cfg.Saturate {
		return cfg, fmt.Errorf("-open-loop and -saturate are exclusive (saturation runs its own open-loop probes)")
	}
	if cfg.OpenLoop && cfg.Rate <= 0 {
		return cfg, fmt.Errorf("-open-loop requires a positive -rate")
	}
	if cfg.Saturate && (cfg.RateMin <= 0 || cfg.RateMax <= cfg.RateMin) {
		return cfg, fmt.Errorf("-saturate requires 0 < -rate-min < -rate-max")
	}
	if cfg.Verify && len(cfg.Addrs) < 2 {
		return cfg, fmt.Errorf("-verify-identical needs at least two -addr entries")
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fatal(err)
	}
	code, err := run(cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	os.Exit(code)
}

// run executes one planload invocation and returns the process exit
// code (1 on a failed SLO gate or identity check, 0 otherwise).
func run(cfg runConfig, out io.Writer) (int, error) {
	l := &loader{
		client:   &http.Client{Timeout: 5 * time.Minute},
		retrier:  clientretry.New(clientretry.Policy{MaxRetries: cfg.Retries, Base: cfg.Backoff, Seed: 1}),
		addrs:    cfg.Addrs,
		endpoint: "plan", path: "/v1/plan",
		warmMix:  cfg.WarmMix,
		statuses: map[int]int{},
		tally:    newTally(),
	}
	var err error
	if cfg.Sweep > 0 {
		l.endpoint, l.path = "sweep", "/v1/sweep"
		l.bodies, err = sweepBodies(cfg.Scenario, cfg.Sweep, cfg.Seeds)
	} else {
		spec := loadSpec{
			Model: cfg.Model, Section: cfg.Section,
			Servers: cfg.Servers, Degree: cfg.Degree, BandwidthGbps: cfg.Bandwidth,
			MCMCIters: cfg.MCMC, Rounds: cfg.Rounds, Parallelism: cfg.Parallel,
			Seeds: cfg.Seeds,
		}
		l.bodies, err = requestBodies(spec)
		if err == nil && cfg.WarmMix > 0 {
			// Near-miss population: same model and server count (the
			// similarity index's hard-match key) at far-away seeds, so each
			// is an exact-fingerprint miss the server can warm-start from
			// whatever the base population has already cached.
			spec.SeedBase = 10000
			l.warmBodies, err = requestBodies(spec)
		}
	}
	if err != nil {
		return 1, err
	}

	if cfg.Verify {
		if err := verifyIdentical(l.client, cfg.Addrs, l.path, l.bodies[0]); err != nil {
			fmt.Fprintf(out, "verify-identical: FAIL: %v\n", err)
			return 1, nil
		}
		fmt.Fprintf(out, "verify-identical: OK: %d daemons returned byte-identical plans\n", len(cfg.Addrs))
		return 0, nil
	}

	if !cfg.JSONOut {
		fmt.Fprintf(out, "planload: %s on %d daemon(s), %d seed(s)\n", l.path, len(cfg.Addrs), cfg.Seeds)
	}
	load := cfg.Config
	load.Fire = l.fireRequest
	if cfg.OpenLoop || cfg.Saturate {
		load.Clients = 0 // open loop: -n and -c do not apply
	}
	var (
		rep         any
		text, bench string
		pass        = true
	)
	if cfg.Saturate {
		sat, err := saturate(cfg, out, load)
		if err != nil {
			return 1, err
		}
		rep, text, bench, pass = sat, saturationText(cfg, sat), sat.BenchLine(cfg.BenchPrefix), sat.SaturationRate > 0
	} else {
		r, err := slo.Run(load)
		if err != nil {
			return 1, err
		}
		if cfg.SLOP99 > 0 || cfg.MaxErrors >= 0 {
			pass = r.Apply(cfg.SLOP99, cfg.MaxErrors)
		}
		rep, text, bench = r, r.String(), r.BenchLines(cfg.BenchPrefix)
	}

	if cfg.JSONOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return 1, err
		}
	} else {
		fmt.Fprint(out, text)
		l.report(out)
		serverMetrics(out, l.client, cfg.Addrs)
	}
	if cfg.Bench {
		fmt.Fprint(out, bench)
	}
	if !pass {
		return 1, nil
	}
	return 0, nil
}

// loader fires one invocation's requests — every closed-loop request,
// open-loop arrival and saturation probe — and accumulates the HTTP
// status, failure-taxonomy and cache-hit counts its text report lists.
type loader struct {
	client     *http.Client
	retrier    *clientretry.Retrier
	addrs      []string
	endpoint   string // class-label prefix: "plan" or "sweep"
	path       string
	bodies     [][]byte
	warmBodies [][]byte // -warm-mix near-miss population; nil without it
	warmMix    float64

	mu       sync.Mutex
	statuses map[int]int
	tally    *tally
	cached   int
}

// fireRequest issues request i through the retrier, reading the full body
// inside the retry loop. The daemon round-robins over addrs by index,
// and the body is pickBody's. The result's class is endpoint/exact-hit
// for a cached answer, endpoint/warm or endpoint/cold for a computed
// one, and endpoint/<outcome> for a failure.
func (l *loader) fireRequest(i int) slo.Result {
	addr := l.addrs[i%len(l.addrs)]
	body, warm := l.pickBody(i)
	resp, raw, outcome, err := l.retrier.DoRead(l.client, true, func() (*http.Request, error) {
		req, err := http.NewRequest(http.MethodPost, addr+l.path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	})
	// Both response shapes carry a top-level "cached" flag.
	var cr struct {
		Cached bool `json:"cached"`
	}
	hit := outcome == clientretry.OK && json.Unmarshal(raw, &cr) == nil && cr.Cached
	class := "cold"
	switch {
	case outcome != clientretry.OK:
		class = outcome.String()
	case hit:
		class = "exact-hit"
	case warm:
		class = "warm"
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	l.tally.add(outcome, err)
	if resp != nil {
		l.statuses[resp.StatusCode]++
	}
	if hit {
		l.cached++
	}
	return slo.Result{Err: outcome != clientretry.OK, Class: l.endpoint + "/" + class}
}

// pickBody returns request i's body and whether it is a near-miss. The
// indices warmPick selects send the near-miss population, the rest the
// base one, and each population cycles through its bodies by its own
// count of picks so far, not by i: indexing both by i would alias with
// the mix (at -warm-mix 0.25 and 4 seeds every near-miss pick falls on
// i ≡ 3 mod 4), leaving bodies of both populations never sent. Both
// counts are pure functions of (i, -warm-mix): the warm picks before i
// number ⌊i·p⌋, the Bresenham count warmPick advances.
func (l *loader) pickBody(i int) ([]byte, bool) {
	if len(l.warmBodies) == 0 {
		return l.bodies[i%len(l.bodies)], false
	}
	warmBefore := int(float64(i) * l.warmMix)
	if warmPick(i, l.warmMix) {
		return l.warmBodies[warmBefore%len(l.warmBodies)], true
	}
	return l.bodies[(i-warmBefore)%len(l.bodies)], false
}

func (l *loader) report(out io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	codes := make([]int, 0, len(l.statuses))
	for code := range l.statuses {
		codes = append(codes, code)
	}
	sort.Ints(codes)
	for _, code := range codes {
		fmt.Fprintf(out, "  HTTP %d: %d\n", code, l.statuses[code])
	}
	fmt.Fprint(out, l.tally.report("  "))
	fmt.Fprintf(out, "  cache-hit responses: %d\n", l.cached)
}

// saturate binary-searches the sustainable rate, each probe a full
// open-loop run of load at the probed rate over -duration.
func saturate(cfg runConfig, out io.Writer, load slo.Config) (*slo.SaturationReport, error) {
	return slo.Saturate(slo.SearchConfig{
		MinRate: cfg.RateMin, MaxRate: cfg.RateMax, Iters: cfg.SatIters,
		TargetP99: cfg.SLOP99, MaxErrors: cfg.MaxErrors,
		Measure: func(rate float64) (*slo.Report, error) {
			if !cfg.JSONOut {
				fmt.Fprintf(out, "probe %.1f req/s for %s...\n", rate, cfg.Duration)
			}
			load.Rate = rate
			return slo.Run(load)
		},
	})
}

// saturationText renders each probe's verdict and the rate found.
func saturationText(cfg runConfig, rep *slo.SaturationReport) string {
	var b strings.Builder
	for _, s := range rep.Steps {
		verdict := "fail"
		if s.Pass {
			verdict = "pass"
		}
		fmt.Fprintf(&b, "  %8.1f req/s: p99 %8.1fms errors %d %s\n", s.Rate, s.P99Seconds*1e3, s.Errors, verdict)
	}
	fmt.Fprintf(&b, "saturation: %.1f req/s (bracket [%g, %g], target p99 %s)\n",
		rep.SaturationRate, cfg.RateMin, cfg.RateMax, cfg.SLOP99)
	return b.String()
}

// serverMetrics prints each daemon's own /v1/metrics counters, or why
// they could not be read.
func serverMetrics(out io.Writer, client *http.Client, addrs []string) {
	for _, addr := range addrs {
		var m serve.MetricsSnapshot
		resp, err := client.Get(addr + "/v1/metrics")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&m)
			resp.Body.Close()
		}
		if err != nil {
			fmt.Fprintf(out, "server %s: metrics unavailable: %v\n", addr, err)
			continue
		}
		fmt.Fprintf(out, "server %s: hits=%d misses=%d coalesced=%d optimizations=%d queue=%d/%d shed=%d warmed=%d warm-starts=%d (improved %d) sim-index=%d\n",
			addr, m.CacheHits, m.CacheMisses, m.Coalesced, m.Optimizations, m.QueueDepth, m.QueueCapacity,
			m.Shed, m.WarmedEntries, m.WarmStarts, m.WarmStartImproved, m.SimIndexEntries)
		if m.ForwardedServed > 0 || len(m.Forwarded) > 0 {
			fwd, fb := int64(0), int64(0)
			for _, v := range m.Forwarded {
				fwd += v
			}
			for _, v := range m.ForwardFallbacks {
				fb += v
			}
			fmt.Fprintf(out, "server %s: forwarded=%d forward-fallbacks=%d forwarded-served=%d\n", addr, fwd, fb, m.ForwardedServed)
		}
		if m.Latency.Count > 0 {
			fmt.Fprintf(out, "server %s latency: p50=%.4gs p99=%.4gs max=%.4gs over %d requests\n",
				addr, m.Latency.P50Seconds, m.Latency.P99Seconds, m.Latency.MaxSeconds, m.Latency.Count)
		}
	}
}

// verifyIdentical POSTs one identical request to every daemon and
// requires the plan payloads to match byte for byte — the sharded
// cluster's correctness invariant (any entry peer, same plan).
func verifyIdentical(client *http.Client, addrs []string, path string, body []byte) error {
	type planBody struct {
		Fingerprint string          `json:"fingerprint"`
		Plan        json.RawMessage `json:"plan"`
		Result      json.RawMessage `json:"result"`
	}
	var first planBody
	for i, addr := range addrs {
		resp, err := client.Post(addr+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("%s: %w", addr, err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("%s: reading body: %w", addr, err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", addr, resp.StatusCode, raw)
		}
		var pb planBody
		if err := json.Unmarshal(raw, &pb); err != nil {
			return fmt.Errorf("%s: decoding: %w", addr, err)
		}
		payload := pb.Plan
		if len(payload) == 0 {
			payload = pb.Result
		}
		if len(payload) == 0 || string(payload) == "null" {
			return fmt.Errorf("%s: response carries no plan", addr)
		}
		if i == 0 {
			first = planBody{Fingerprint: pb.Fingerprint, Plan: payload}
			continue
		}
		if pb.Fingerprint != first.Fingerprint {
			return fmt.Errorf("%s: fingerprint %s differs from %s at %s", addr, pb.Fingerprint, first.Fingerprint, addrs[0])
		}
		if !bytes.Equal(payload, first.Plan) {
			return fmt.Errorf("%s: plan bytes differ from %s", addr, addrs[0])
		}
	}
	return nil
}

// tally accumulates the failure taxonomy over a load run. Not
// goroutine-safe; callers hold the loader's mutex.
type tally struct {
	counts map[clientretry.Outcome]int
	firsts map[clientretry.Outcome]string
}

func newTally() *tally {
	return &tally{
		counts: map[clientretry.Outcome]int{},
		firsts: map[clientretry.Outcome]string{},
	}
}

func (t *tally) add(out clientretry.Outcome, err error) {
	t.counts[out]++
	if err != nil {
		if _, ok := t.firsts[out]; !ok {
			t.firsts[out] = err.Error()
		}
	}
}

// report renders the non-OK taxonomy lines, one per outcome in a fixed
// order, each prefixed with prefix. Empty when every request succeeded.
func (t *tally) report(prefix string) string {
	order := []clientretry.Outcome{
		clientretry.Connect, clientretry.Timeout,
		clientretry.Status4xx, clientretry.Status5xx, clientretry.Exhausted,
	}
	var b bytes.Buffer
	for _, o := range order {
		n := t.counts[o]
		if n == 0 {
			continue
		}
		fmt.Fprintf(&b, "%serrors[%s]: %d", prefix, o, n)
		if first := t.firsts[o]; first != "" {
			fmt.Fprintf(&b, " (first: %s)", first)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// warmPick deterministically selects which request indices fire the
// near-miss population at mix fraction p: index i is picked exactly when
// the running count ⌊(i+1)·p⌋ advances, spreading picks evenly over the
// run (Bresenham-style) with no randomness to blur repeated loads.
func warmPick(i int, p float64) bool {
	return int(float64(i+1)*p) > int(float64(i)*p)
}

// loadSpec describes the request population one load run fires.
type loadSpec struct {
	Model, Section    string
	Servers, Degree   int
	BandwidthGbps     float64
	MCMCIters, Rounds int
	Parallelism       int
	Seeds             int
	// SeedBase offsets every seed; the -warm-mix near-miss population uses
	// a far-away base so it never collides with the base population's
	// fingerprints while staying in the same similarity bucket.
	SeedBase int
}

// requestBodies pre-marshals one plan request per seed. Splitting this
// from main keeps the request surface testable: a body must decode into
// a PlanRequest the server would accept.
func requestBodies(s loadSpec) ([][]byte, error) {
	bodies := make([][]byte, s.Seeds)
	for i := range bodies {
		req := serve.PlanRequest{
			Model: topoopt.ModelSpec{Preset: s.Model, Section: s.Section},
			Options: topoopt.Options{
				Servers: s.Servers, Degree: s.Degree, LinkBandwidth: s.BandwidthGbps * 1e9,
				MCMCIters: s.MCMCIters, Rounds: s.Rounds, Parallelism: s.Parallelism,
				Seed: int64(s.SeedBase + i + 1),
			},
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

// sweepBodies pre-marshals one K-replica sweep request per root seed,
// built on the named fleet scenario preset.
func sweepBodies(scenario string, replicas, seeds int) ([][]byte, error) {
	spec, err := topoopt.FleetScenario(scenario)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, seeds)
	for i := range bodies {
		sp := spec
		sp.Seed = int64(i + 1)
		b, err := json.Marshal(serve.SweepRequest{Spec: sp, Replicas: replicas})
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}
	return bodies, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "planload:", err)
	os.Exit(1)
}
