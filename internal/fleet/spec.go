// Package fleet is the trace-driven multi-job cluster simulator: a
// deterministic discrete-event engine that runs an entire cluster
// lifetime. Jobs sampled from internal/trace (or supplied inline) arrive
// over time, are admitted by a pluggable placement policy, pay the
// topology-provisioning latency of the cluster's provisioning mode, train
// on per-shard fabrics built through the internal/arch registry (strategy
// searches warm-start from prior plans of the same job family), and can
// be hit by seeded link/port failures that either trigger a degraded
// replan or a restart. The whole run — schedule, per-job JCT and
// queueing delay, utilization series — is reproducible byte-for-byte
// from (Seed, TraceSpec, Policy, Arch) alone.
package fleet

import (
	"fmt"
	"strings"

	"topoopt/internal/arch"
	"topoopt/internal/flexnet"
	"topoopt/internal/model"
	"topoopt/internal/trace"
)

// Spec configures one fleet simulation. The JSON tags define the
// canonical wire format served by topooptd's /v1/fleet endpoint; like
// topoopt.Options, a canonicalized Spec marshals byte-stably so the
// planning service can fingerprint and cache runs.
type Spec struct {
	// Servers is the cluster size (n).
	Servers int `json:"servers"`
	// Degree is the nominal interfaces per server (d); failures degrade a
	// job's shard one interface at a time.
	Degree int `json:"degree"`
	// LinkBandwidth is per-interface bandwidth in bits/s (B).
	LinkBandwidth float64 `json:"link_bandwidth"`
	// Arch is the fabric backend (internal/arch registry name) every
	// job's shard is built on.
	Arch string `json:"arch"`
	// Policy selects the placement policy: "fifo" (packed first-fit,
	// head-of-line blocking), "strided" (spread across racks) or
	// "backfill" (best-fit with EASY backfill). Default "fifo".
	Policy string `json:"policy,omitempty"`
	// RackSize is the servers-per-rack stride used by the strided policy
	// (default 8).
	RackSize int `json:"rack_size,omitempty"`
	// Provisioning is the topology-activation model: "patch" (cold patch
	// panel), "lookahead" (Appendix C two-plane design) or "ocs".
	// Default "ocs". Activation is a serial resource (one robot / one OCS
	// controller).
	Provisioning string `json:"provisioning,omitempty"`
	// Seed makes the whole run deterministic: trace sampling, arrival
	// process, failure schedule, victim selection and every strategy
	// search derive their streams from it.
	Seed int64 `json:"seed,omitempty"`
	// MCMCIters is the per-search proposal budget (default 40 — fleet
	// runs many searches, so the default is leaner than a one-shot plan).
	MCMCIters int `json:"mcmc_iters,omitempty"`
	// Rounds is the alternating-optimization budget for co-optimized
	// backends (default 2).
	Rounds int `json:"rounds,omitempty"`
	// Parallelism is the number of MCMC chains per strategy search
	// (default 1), identical in semantics to topoopt.Options.Parallelism.
	Parallelism int `json:"parallelism,omitempty"`
	// SearchWorkers bounds the goroutines running those chains. A pure
	// execution hint excluded from the wire format; the planning service
	// sets it from its global search-thread budget.
	SearchWorkers int `json:"-"`
	// GPU is the accelerator model (default A100, selected by a zero
	// PeakFLOPS); an override needs positive PeakFLOPS and MemBandwidth.
	GPU model.GPU `json:"gpu"`
	// Trace describes the job arrivals.
	Trace TraceSpec `json:"trace"`
	// Failures, when non-nil, injects seeded link/port failures.
	Failures *FailureSpec `json:"failures,omitempty"`
}

// FamilyShare weights one trace family in the synthetic mix. Shares are
// an ordered slice, never a map: sampling walks them in declaration
// order, so the mix contributes nothing nondeterministic to a run.
type FamilyShare struct {
	Family string  `json:"family"`
	Weight float64 `json:"weight"`
}

// TraceSpec describes job arrivals: either a synthetic trace sampled from
// internal/trace's §2.2 distributions (Jobs > 0) or an explicit inline
// job list.
type TraceSpec struct {
	// Jobs is the number of synthetic jobs to sample.
	Jobs int `json:"jobs,omitempty"`
	// Mix weights the trace families; default is the §5.6-flavored
	// 40/30/20/10 Recommendation/NLP/ObjectTracking/ImageRecognition mix.
	Mix []FamilyShare `json:"mix,omitempty"`
	// MeanInterarrivalS is the mean arrival gap in seconds (default 600).
	MeanInterarrivalS float64 `json:"mean_interarrival_s,omitempty"`
	// Pattern shapes the arrival process: "steady" (Poisson, default) or
	// "diurnal" (Poisson with a sinusoidally modulated rate).
	Pattern string `json:"pattern,omitempty"`
	// DiurnalPeriodS is the diurnal modulation period (default 86400).
	DiurnalPeriodS float64 `json:"diurnal_period_s,omitempty"`
	// ItersPerHour converts a sampled duration into a training-iteration
	// budget: iters = round(hours × ItersPerHour), min 1 (default 60).
	ItersPerHour float64 `json:"iters_per_hour,omitempty"`
	// MinWorkers / MaxWorkers clamp sampled worker counts after scaling
	// (defaults 2 and Servers).
	MinWorkers int `json:"min_workers,omitempty"`
	MaxWorkers int `json:"max_workers,omitempty"`
	// WorkerDivisor scales the §2.2 worker distribution (32–700 workers)
	// down to the simulated cluster: workers = sampled/WorkerDivisor,
	// then clamped (default 1).
	WorkerDivisor int `json:"worker_divisor,omitempty"`
	// Inline supplies explicit jobs instead of a synthetic trace.
	// Equal-At jobs are admitted in slice order (stable by index).
	Inline []JobSpec `json:"inline,omitempty"`
}

// JobSpec is one explicit job of an inline trace. Exactly one of Iters
// (a training job evaluated on the fabric) and FixedDurationS (a
// fixed-length reservation — the no-training case, which reduces the
// engine to the Appendix C arrivals-and-provisioning model) must be set.
type JobSpec struct {
	AtS            float64 `json:"at_s"`
	Family         string  `json:"family,omitempty"`
	Workers        int     `json:"workers"`
	Iters          int     `json:"iters,omitempty"`
	FixedDurationS float64 `json:"fixed_duration_s,omitempty"`
}

// FailureSpec injects seeded failures: a Poisson process of link/OCS-port
// faults, each hitting one currently-training job.
type FailureSpec struct {
	// RatePerHour is the cluster-wide fault rate.
	RatePerHour float64 `json:"rate_per_hour"`
	// Mode is what a fault does to its victim: "replan" re-evaluates the
	// job on a fabric degraded by one interface per server (warm-started
	// from the job's current strategy; falls back to restart when the
	// shard cannot be degraded further), "restart" loses all progress and
	// re-queues the job.
	Mode string `json:"mode"`
	// HorizonS bounds fault injection to [0, HorizonS] (default: the last
	// arrival time, so a restart storm cannot postpone completion
	// forever).
	HorizonS float64 `json:"horizon_s,omitempty"`
}

// Failure modes.
const (
	FailReplan  = "replan"
	FailRestart = "restart"
)

// Provisioning mode names (the values of Spec.Provisioning).
const (
	ProvPatch     = "patch"
	ProvLookahead = "lookahead"
	ProvOCS       = "ocs"
)

// ParseFamily resolves a wire family name to a trace.Family. Accepted
// names are the trace package's String() spellings plus the "NLP" alias.
func ParseFamily(name string) (trace.Family, error) {
	for _, f := range trace.Families() {
		if name == f.String() {
			return f, nil
		}
	}
	if name == "NLP" {
		return trace.NLP, nil
	}
	return 0, fmt.Errorf("fleet: unknown family %q (want %s)", name, strings.Join(familyNames(), ", "))
}

func familyNames() []string {
	fs := trace.Families()
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out
}

// defaultMix is the §5.6-flavored family mix applied when Trace.Mix is
// empty: mostly recommendation and NLP jobs, some vision.
func defaultMix() []FamilyShare {
	return []FamilyShare{
		{Family: trace.Recommendation.String(), Weight: 4},
		{Family: trace.NLP.String(), Weight: 3},
		{Family: trace.ObjectTracking.String(), Weight: 2},
		{Family: trace.ImageRecognition.String(), Weight: 1},
	}
}

// Canonical returns the spec with every defaulted field made explicit, so
// an omitted field and its explicit default fingerprint identically (the
// same normalization contract as topoopt.Options.Canonical).
func (sp Spec) Canonical() Spec {
	if sp.Policy == "" {
		sp.Policy = PolicyFIFO
	}
	if sp.RackSize <= 0 {
		sp.RackSize = 8
	}
	if sp.Provisioning == "" {
		sp.Provisioning = ProvOCS
	}
	if sp.MCMCIters <= 0 {
		sp.MCMCIters = 40
	}
	if sp.Rounds <= 0 {
		sp.Rounds = 2
	}
	if sp.Parallelism <= 0 {
		sp.Parallelism = 1
	}
	if sp.GPU.PeakFLOPS == 0 {
		sp.GPU = model.A100
	}
	if len(sp.Trace.Inline) == 0 {
		if len(sp.Trace.Mix) == 0 {
			sp.Trace.Mix = defaultMix()
		}
		if sp.Trace.MeanInterarrivalS <= 0 {
			sp.Trace.MeanInterarrivalS = 600
		}
		if sp.Trace.Pattern == "" {
			sp.Trace.Pattern = "steady"
		}
		if sp.Trace.Pattern == "diurnal" && sp.Trace.DiurnalPeriodS <= 0 {
			sp.Trace.DiurnalPeriodS = 86400
		}
		if sp.Trace.ItersPerHour <= 0 {
			sp.Trace.ItersPerHour = 60
		}
		if sp.Trace.MinWorkers <= 0 {
			sp.Trace.MinWorkers = 2
		}
		if sp.Trace.MaxWorkers <= 0 {
			sp.Trace.MaxWorkers = sp.Servers
		}
		if sp.Trace.WorkerDivisor <= 0 {
			sp.Trace.WorkerDivisor = 1
		}
	}
	return sp
}

// Validate checks the spec describes a runnable simulation, with errors
// that name the valid menu for every enumerated field (the serving layer
// forwards them as structured 400s).
func (sp Spec) Validate() error {
	if sp.Servers < 2 {
		return fmt.Errorf("fleet: Servers must be >= 2, got %d", sp.Servers)
	}
	if sp.Degree < 1 {
		return fmt.Errorf("fleet: Degree must be >= 1, got %d", sp.Degree)
	}
	if sp.LinkBandwidth <= 0 {
		return fmt.Errorf("fleet: LinkBandwidth must be positive, got %g", sp.LinkBandwidth)
	}
	if _, ok := arch.Lookup(sp.Arch); !ok {
		return fmt.Errorf("fleet: unknown architecture %q (registered: %s)",
			sp.Arch, strings.Join(arch.Names(), ", "))
	}
	if sp.Policy != "" {
		if _, err := ParsePolicy(sp.Policy, sp.RackSize); err != nil {
			return err
		}
	}
	switch sp.Provisioning {
	case "", ProvPatch, ProvLookahead, ProvOCS:
	default:
		return fmt.Errorf("fleet: unknown provisioning %q (want %s, %s or %s)",
			sp.Provisioning, ProvPatch, ProvLookahead, ProvOCS)
	}
	if sp.Parallelism < 0 || sp.Parallelism > flexnet.MaxParallelism {
		return fmt.Errorf("fleet: Parallelism must be in [0,%d], got %d",
			flexnet.MaxParallelism, sp.Parallelism)
	}
	// A zero PeakFLOPS selects the default A100 (Canonical); any other GPU
	// must describe one.
	if sp.GPU.PeakFLOPS != 0 {
		if err := sp.GPU.Validate(); err != nil {
			return fmt.Errorf("fleet: %w", err)
		}
	}
	if err := sp.Trace.validate(sp.Servers); err != nil {
		return err
	}
	if sp.Failures != nil {
		if sp.Failures.RatePerHour < 0 {
			return fmt.Errorf("fleet: failure rate must be >= 0, got %g", sp.Failures.RatePerHour)
		}
		switch sp.Failures.Mode {
		case FailReplan, FailRestart:
		default:
			return fmt.Errorf("fleet: unknown failure mode %q (want %s or %s)",
				sp.Failures.Mode, FailReplan, FailRestart)
		}
	}
	return nil
}

func (t TraceSpec) validate(servers int) error {
	if len(t.Inline) == 0 && t.Jobs <= 0 {
		return fmt.Errorf("fleet: trace needs jobs > 0 or an inline job list")
	}
	if len(t.Inline) > 0 && t.Jobs > 0 {
		return fmt.Errorf("fleet: trace jobs and inline are mutually exclusive")
	}
	total := 0.0
	for _, fs := range t.Mix {
		if _, err := ParseFamily(fs.Family); err != nil {
			return err
		}
		if fs.Weight < 0 {
			return fmt.Errorf("fleet: mix weight for %s must be >= 0, got %g", fs.Family, fs.Weight)
		}
		total += fs.Weight
	}
	if len(t.Mix) > 0 && total == 0 {
		// All-zero weights would silently collapse every draw onto the
		// fallback (last) family — reject instead of simulating something
		// the caller didn't ask for.
		return fmt.Errorf("fleet: mix weights sum to zero")
	}
	switch t.Pattern {
	case "", "steady", "diurnal":
	default:
		return fmt.Errorf("fleet: unknown arrival pattern %q (want steady or diurnal)", t.Pattern)
	}
	if t.MaxWorkers > 0 && t.MaxWorkers > servers {
		return fmt.Errorf("fleet: trace max_workers %d exceeds the %d-server cluster", t.MaxWorkers, servers)
	}
	for i, j := range t.Inline {
		if j.Workers < 1 {
			return fmt.Errorf("fleet: inline job %d needs workers >= 1", i)
		}
		if j.Workers > servers {
			return fmt.Errorf("fleet: inline job %d wants %d servers on a %d-server cluster", i, j.Workers, servers)
		}
		if j.AtS < 0 {
			return fmt.Errorf("fleet: inline job %d arrives at negative time %g", i, j.AtS)
		}
		hasIters := j.Iters > 0
		hasFixed := j.FixedDurationS > 0
		if hasIters == hasFixed {
			return fmt.Errorf("fleet: inline job %d needs exactly one of iters and fixed_duration_s", i)
		}
		if hasIters {
			if _, err := ParseFamily(j.Family); err != nil {
				return fmt.Errorf("fleet: inline job %d: %w", i, err)
			}
		}
	}
	return nil
}

// modelFor maps a trace family to its §5.6 workload preset — the same
// family → DNN correspondence cluster.BuildMix uses for the shared-cluster
// mix.
func modelFor(f trace.Family) *model.Model {
	switch f {
	case trace.Recommendation:
		return model.DLRMPreset(model.Sec56)
	case trace.NLP:
		return model.BERTPreset(model.Sec56)
	case trace.ObjectTracking:
		return model.CANDLEPreset(model.Sec56)
	default:
		return model.VGGPreset(model.Sec56)
	}
}
