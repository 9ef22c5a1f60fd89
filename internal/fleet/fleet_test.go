package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"topoopt/internal/model"
)

// runJSON executes a spec and returns the canonical result JSON.
func runJSON(t *testing.T, sp Spec) []byte {
	t.Helper()
	res, err := Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFleetDeterministic is the subsystem's core guarantee: two runs of
// the same (Seed, TraceSpec, Policy, Arch) produce byte-identical
// FleetResult JSON — including under the failure-storm preset, where the
// schedule is perturbed by seeded faults, restarts and degraded replans.
func TestFleetDeterministic(t *testing.T) {
	for _, name := range Scenarios() {
		sp, err := Scenario(name)
		if err != nil {
			t.Fatal(err)
		}
		a := runJSON(t, sp)
		b := runJSON(t, sp)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two identical runs produced different JSON", name)
		}
	}
}

// TestFleetSeedChangesRun guards against the opposite failure: a seed
// that doesn't reach the trace/failure streams would make determinism
// vacuous.
func TestFleetSeedChangesRun(t *testing.T) {
	sp, err := Scenario(ScenarioFailureStorm)
	if err != nil {
		t.Fatal(err)
	}
	a := runJSON(t, sp)
	sp.Seed++
	b := runJSON(t, sp)
	if bytes.Equal(a, b) {
		t.Error("different seeds produced identical runs")
	}
}

// TestFleetFailureReplayable: the failure schedule, victim choice and
// every replan/restart are functions of the seed — a storm run twice is
// the same storm.
func TestFleetFailureReplayable(t *testing.T) {
	sp, err := Scenario(ScenarioFailureStorm)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := mustRun(t, sp), mustRun(t, sp)
	if ra.Summary.Failures == 0 {
		t.Fatal("failure-storm preset injected no failures")
	}
	if ra.Summary.Failures != rb.Summary.Failures ||
		ra.Summary.Restarts != rb.Summary.Restarts ||
		ra.Summary.Replans != rb.Summary.Replans {
		t.Errorf("failure effects differ across replays: %+v vs %+v", ra.Summary, rb.Summary)
	}
}

func mustRun(t *testing.T, sp Spec) *Result {
	t.Helper()
	res, err := Run(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFleetReplanDegradesAndWarmStarts: the failure-storm preset must
// actually exercise the degraded-replan path — replans happen, their
// searches warm-start from the prior plan, and a replanned job's JCT
// reflects degraded (never faster) iterations.
func TestFleetReplanDegradesAndWarmStarts(t *testing.T) {
	sp, err := Scenario(ScenarioFailureStorm)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, sp)
	if res.Summary.Replans == 0 {
		t.Fatal("failure-storm produced no replans")
	}
	if res.Summary.WarmStarts == 0 {
		t.Error("replans ran but no search was warm-started")
	}
	// The warm seeds come from the evaluator's similarity index: every
	// warm start is an index hit (static-fabric backends probe on every
	// charged search, so hits + misses covers them all), and a degraded
	// replan must find its healthy cousin — hits track the storm.
	if res.Summary.WarmHits != res.Summary.WarmStarts {
		t.Errorf("warm hits %d != warm starts %d (static backend: every warm start is an index hit)",
			res.Summary.WarmHits, res.Summary.WarmStarts)
	}
	if res.Summary.WarmHits == 0 {
		t.Error("failure storm probed the similarity index without a single hit")
	}
	if got := res.Summary.WarmHits + res.Summary.WarmMisses; got != res.Summary.Searches {
		t.Errorf("probes (%d) != searches (%d): every charged static-fabric search must probe exactly once",
			got, res.Summary.Searches)
	}
	for _, j := range res.Jobs {
		if j.Replans > 0 && j.Slowdown < 1 {
			t.Errorf("job %d replanned %d times yet has slowdown %g < 1", j.ID, j.Replans, j.Slowdown)
		}
	}
}

// TestFleetRestartLosesProgress: a restarted job's JCT includes the
// aborted attempt, so its slowdown strictly exceeds 1.
func TestFleetRestartLosesProgress(t *testing.T) {
	sp, err := Scenario(ScenarioFailureStorm)
	if err != nil {
		t.Fatal(err)
	}
	sp.Failures.Mode = FailRestart
	res := mustRun(t, sp)
	if res.Summary.Restarts == 0 {
		t.Fatal("restart-mode storm produced no restarts")
	}
	for _, j := range res.Jobs {
		if j.Restarts > 0 && j.Slowdown <= 1 {
			t.Errorf("job %d restarted %d times yet has slowdown %g <= 1", j.ID, j.Restarts, j.Slowdown)
		}
	}
}

// TestFleetRestartServesFullWork: a restarted job's re-placement must
// not be completed by the aborted attempt's stale finish event — the
// finish generation is monotonic across the job's whole lifetime, so
// the final attempt always runs its full service (FinishS − StartS ≥
// Iters × IterS).
func TestFleetRestartServesFullWork(t *testing.T) {
	sp := Spec{
		Servers: 8, Degree: 2, LinkBandwidth: 100e9,
		Arch: "Fat-tree", Policy: PolicyFIFO, Provisioning: ProvOCS,
		Seed: 4, MCMCIters: 10,
		Trace: TraceSpec{Inline: []JobSpec{
			// One training job with free servers left over, so a restart
			// re-places immediately — the exact window where a stale
			// generation-reusing finish event would fire early.
			{AtS: 0, Family: "NLP", Workers: 4, Iters: 2000},
		}},
		// Faults keep landing while the job trains; every one restarts it.
		Failures: &FailureSpec{RatePerHour: 1200, Mode: FailRestart, HorizonS: 60},
	}
	res := mustRun(t, sp)
	j := res.Jobs[0]
	if j.Restarts == 0 {
		t.Fatal("storm produced no restarts; the test exercises nothing")
	}
	service := float64(j.Iters) * j.IterS
	if got := j.FinishS - j.StartS; got < service*0.999 {
		t.Errorf("final attempt served %gs of a %gs job (stale finish event fired after %d restarts)",
			got, service, j.Restarts)
	}
}

// TestFleetUtilizationSeries: the series starts at an empty cluster,
// ends at an empty cluster at makespan, never exceeds the cluster size,
// and is strictly ordered in time.
func TestFleetUtilizationSeries(t *testing.T) {
	sp, err := Scenario(ScenarioDiurnal)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, sp)
	u := res.Utilization
	if len(u) < 2 {
		t.Fatalf("utilization series too short: %d points", len(u))
	}
	if u[0].Busy != 0 {
		t.Errorf("series starts busy: %+v", u[0])
	}
	last := u[len(u)-1]
	if last.Busy != 0 || last.TS != res.Summary.MakespanS {
		t.Errorf("series should end empty at makespan: %+v (makespan %g)", last, res.Summary.MakespanS)
	}
	for i, p := range u {
		if p.Busy < 0 || p.Busy > sp.Servers {
			t.Errorf("point %d busy %d outside [0,%d]", i, p.Busy, sp.Servers)
		}
		if i > 0 && p.TS < u[i-1].TS {
			t.Errorf("series time goes backwards at %d", i)
		}
	}
	if res.Summary.MeanUtilization <= 0 || res.Summary.MeanUtilization > 1 {
		t.Errorf("mean utilization %g outside (0,1]", res.Summary.MeanUtilization)
	}
}

// TestFleetCancellation: a cancelled context aborts the run with its
// error instead of a partial result.
func TestFleetCancellation(t *testing.T) {
	sp, err := Scenario(ScenarioSteady)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, sp); err != context.Canceled {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}
}

func TestFleetValidation(t *testing.T) {
	good, err := Scenario(ScenarioSteady)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"servers", func(s *Spec) { s.Servers = 1 }},
		{"degree", func(s *Spec) { s.Degree = 0 }},
		{"bandwidth", func(s *Spec) { s.LinkBandwidth = 0 }},
		{"arch", func(s *Spec) { s.Arch = "NoSuchFabric" }},
		{"policy", func(s *Spec) { s.Policy = "lifo" }},
		{"provisioning", func(s *Spec) { s.Provisioning = "teleport" }},
		{"parallelism", func(s *Spec) { s.Parallelism = 10000 }},
		{"no jobs", func(s *Spec) { s.Trace = TraceSpec{} }},
		{"jobs and inline", func(s *Spec) {
			s.Trace.Inline = []JobSpec{{Workers: 2, FixedDurationS: 1}}
		}},
		{"mix family", func(s *Spec) { s.Trace.Mix = []FamilyShare{{Family: "Cats", Weight: 1}} }},
		{"mix weight", func(s *Spec) {
			s.Trace.Mix = []FamilyShare{{Family: "NLP", Weight: -1}}
		}},
		{"all-zero mix", func(s *Spec) {
			s.Trace.Mix = []FamilyShare{{Family: "NLP", Weight: 0}, {Family: "Recommendation", Weight: 0}}
		}},
		{"pattern", func(s *Spec) { s.Trace.Pattern = "lunar" }},
		{"max workers", func(s *Spec) { s.Trace.MaxWorkers = s.Servers + 1 }},
		{"failure rate", func(s *Spec) { s.Failures = &FailureSpec{RatePerHour: -1, Mode: FailReplan} }},
		{"failure mode", func(s *Spec) { s.Failures = &FailureSpec{RatePerHour: 1, Mode: "explode"} }},
		{"gpu without mem_bandwidth", func(s *Spec) { s.GPU = model.GPU{PeakFLOPS: 1e12} }},
		{"negative peak_flops", func(s *Spec) { s.GPU = model.GPU{PeakFLOPS: -1e12, MemBandwidth: 1e12} }},
	}
	for _, c := range cases {
		sp := good
		c.mut(&sp)
		if _, err := Run(context.Background(), sp); err == nil {
			t.Errorf("%s: invalid spec accepted", c.name)
		}
	}
	inlineBad := []struct {
		name string
		job  JobSpec
	}{
		{"zero workers", JobSpec{Workers: 0, FixedDurationS: 1}},
		{"oversized", JobSpec{Workers: 1000, FixedDurationS: 1}},
		{"negative at", JobSpec{AtS: -1, Workers: 2, FixedDurationS: 1}},
		{"no service", JobSpec{Workers: 2}},
		{"both services", JobSpec{Workers: 2, Iters: 1, FixedDurationS: 1}},
		{"training needs family", JobSpec{Workers: 2, Iters: 1}},
	}
	for _, c := range inlineBad {
		sp := good
		sp.Trace = TraceSpec{Inline: []JobSpec{c.job}}
		if _, err := Run(context.Background(), sp); err == nil {
			t.Errorf("inline %s: invalid spec accepted", c.name)
		}
	}
}

func TestScenarioUnknown(t *testing.T) {
	if _, err := Scenario("chaos-monkey"); err == nil {
		t.Error("unknown scenario accepted")
	}
	if len(Scenarios()) != 3 {
		t.Errorf("want 3 presets, got %v", Scenarios())
	}
}

// TestSpecCanonicalStable: canonicalization is idempotent and fills every
// defaulted field, so an omitted field and its default fingerprint the
// same way (the serving layer's cache contract).
func TestSpecCanonicalStable(t *testing.T) {
	sp := Spec{
		Servers: 16, Degree: 2, LinkBandwidth: 1e9, Arch: "Fat-tree",
		Trace: TraceSpec{Jobs: 4},
	}
	c1 := sp.Canonical()
	c2 := c1.Canonical()
	b1, _ := json.Marshal(c1)
	b2, _ := json.Marshal(c2)
	if !bytes.Equal(b1, b2) {
		t.Error("Canonical not idempotent")
	}
	if c1.Policy != PolicyFIFO || c1.Provisioning != ProvOCS || len(c1.Trace.Mix) == 0 {
		t.Errorf("defaults not filled: %+v", c1)
	}
	// Explicit defaults marshal identically to omitted ones.
	explicit := sp
	explicit.Policy = PolicyFIFO
	eb, _ := json.Marshal(explicit.Canonical())
	if !bytes.Equal(b1, eb) {
		t.Error("explicit default and omitted field canonicalize differently")
	}
}

func TestParseFamily(t *testing.T) {
	for _, name := range []string{"ObjectTracking", "Recommendation", "NaturalLanguageProc", "ImageRecognition", "NLP"} {
		if _, err := ParseFamily(name); err != nil {
			t.Errorf("ParseFamily(%q): %v", name, err)
		}
	}
	if _, err := ParseFamily("Gaming"); err == nil {
		t.Error("unknown family accepted")
	}
}
