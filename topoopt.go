// Package topoopt is the public API of the TopoOpt library: co-optimizing
// network topology and parallelization strategy for distributed DNN
// training jobs (Wang et al., NSDI 2023).
//
// The central entry point is Optimize, which runs the alternating
// optimization of the paper's §4 — FlexFlow-style MCMC strategy search in
// the Comp.×Comm. plane alternating with the TOPOLOGY FINDER algorithm in
// the Comm.×Topo. plane — and returns a deployable Plan: the
// direct-connect topology (patch-panel circuits), the AllReduce ring
// permutations (TotientPerms), routing rules (coin-change + k-shortest
// path), the parallelization strategy, and the predicted iteration time
// from a flow-level simulation.
//
//	m := topoopt.DLRM(topoopt.Sec53)
//	plan, err := topoopt.Optimize(m, topoopt.Options{
//	    Servers: 128, Degree: 4, LinkBandwidth: 100e9,
//	})
//
// Comparison baselines (Ideal Switch, cost-equivalent Fat-tree, 2:1
// oversubscribed Fat-tree, Expander, SiP-ML-style reconfigurable fabrics)
// and the §5.2 cost model are exposed through Compare and Cost.
package topoopt

import (
	"context"
	"fmt"
	"strings"

	"topoopt/internal/arch"
	"topoopt/internal/flexnet"
	"topoopt/internal/model"
	"topoopt/internal/parallel"
	"topoopt/internal/traffic"
)

// Model is a DNN training workload (a coarse operator graph).
type Model = model.Model

// Strategy is a parallelization strategy + device placement.
type Strategy = parallel.Strategy

// Demand is a job's per-iteration traffic demand: mutable AllReduce
// groups plus the immutable MP transfer matrix.
type Demand = traffic.Demand

// GPU is the roofline compute model used for per-layer compute times.
type GPU = model.GPU

// A100 is the default accelerator model.
var A100 = model.A100

// Section selects a paper experiment configuration for workload presets.
type Section = model.Section

// Preset sections from List 1 (Appendix D).
const (
	Sec53 = model.Sec53 // §5.3 dedicated-cluster simulations
	Sec56 = model.Sec56 // §5.6 shared-cluster simulations
	Sec6  = model.Sec6  // §6 12-node testbed
)

// Workload presets (List 1).
func DLRM(s Section) *Model     { return model.DLRMPreset(s) }
func CANDLE(s Section) *Model   { return model.CANDLEPreset(s) }
func BERT(s Section) *Model     { return model.BERTPreset(s) }
func NCF() *Model               { return model.NCFPreset() }
func ResNet50(s Section) *Model { return model.ResNetPreset(s) }
func VGG16(s Section) *Model    { return model.VGGPreset(s) }

// Options configures Optimize. The JSON tags define the canonical wire
// format used by the topooptd planning service (see ModelSpec).
type Options struct {
	// Servers is the number of dedicated training servers (n).
	Servers int `json:"servers"`
	// Degree is the number of optical interfaces per server (d).
	Degree int `json:"degree"`
	// LinkBandwidth is per-interface bandwidth in bits/s (B).
	LinkBandwidth float64 `json:"link_bandwidth"`
	// BatchPerGPU overrides the model's default when > 0; negative values
	// are rejected.
	BatchPerGPU int `json:"batch_per_gpu,omitempty"`
	// Rounds is the alternating-optimization hyper-parameter k
	// (default 3).
	Rounds int `json:"rounds,omitempty"`
	// MCMCIters is the strategy-search budget per round. When ≤ 0, both
	// Optimize and Compare inherit the single default applied inside
	// flexnet's MCMC search (flexnet.DefaultMCMCIters, 200).
	MCMCIters int `json:"mcmc_iters,omitempty"`
	// Seed makes the search deterministic.
	Seed int64 `json:"seed,omitempty"`
	// PrimeOnly restricts TotientPerms to prime generators (recommended
	// beyond a few hundred servers).
	PrimeOnly bool `json:"prime_only,omitempty"`
	// GPU overrides the accelerator model (default A100, selected by a
	// zero PeakFLOPS); an override needs positive PeakFLOPS and
	// MemBandwidth.
	GPU GPU `json:"gpu"`
	// Parallelism is the number of parallel MCMC chains (K) per strategy
	// search (default 1, max flexnet.MaxParallelism). Semantic: the plan
	// depends deterministically on (Seed, Parallelism) — the same seed
	// and K produce a byte-identical plan for any worker count or
	// GOMAXPROCS setting — so K is part of the wire format and the
	// service fingerprint.
	Parallelism int `json:"parallelism,omitempty"`
	// SearchWorkers bounds the goroutines executing those chains
	// (0 = min(Parallelism, GOMAXPROCS)). A pure execution hint that
	// never changes results, so it is excluded from the wire format and
	// the fingerprint; the planning service sets it per request from its
	// global search-thread budget.
	SearchWorkers int `json:"-"`
	// Progress, when non-nil, receives per-epoch strategy-search progress
	// (proposals done, round budget) from the MCMC engine's epoch
	// barriers; done restarts at each alternating-optimization round.
	// Purely observational — the plan is identical with or without it —
	// so, like SearchWorkers, it is server-side instrumentation excluded
	// from the wire format and the fingerprint.
	Progress func(done, total int) `json:"-"`
	// WarmStart seeds every strategy-search round with extra starting
	// candidates (flexnet's MCMCConfig.Warm). The planning service fills
	// it from its plan-similarity index when a near-miss request has a
	// cached neighbor. Server-side: excluded from the wire format and the
	// fingerprint — a warm start changes how fast the search converges,
	// not what request it answers.
	WarmStart []Strategy `json:"-"`
	// Patience, when > 0, lets each search round stop after that many
	// consecutive improvement-free epoch barriers (flexnet's
	// MCMCConfig.Patience). Server-side, set together with WarmStart: a
	// search seeded near an optimum converges within a few epochs and
	// skips the rest of its budget.
	Patience int `json:"-"`
	// OnWarmStart, when non-nil, reports whether a WarmStart candidate
	// won the search's starting point (telemetry). Server-side.
	OnWarmStart func(adopted bool) `json:"-"`
	// OnBest, when non-nil, streams the search's running best strategy
	// and estimated cost from every round's epoch barriers — the anytime
	// seam the async jobs API uses to publish partial plans. Costs can
	// jump between rounds (each round estimates on its own candidate
	// fabric); monotonicity is enforced by the consumer. Server-side.
	OnBest func(s Strategy, cost float64) `json:"-"`
}

// Validate checks that the options describe a feasible deployment. It is
// exported so services decoding Options off the wire (internal/serve) can
// reject bad requests up front with structured errors.
func (o Options) Validate() error {
	if o.Servers < 2 {
		return fmt.Errorf("topoopt: Servers must be >= 2, got %d", o.Servers)
	}
	if o.Degree < 1 {
		return fmt.Errorf("topoopt: Degree must be >= 1, got %d", o.Degree)
	}
	if o.LinkBandwidth <= 0 {
		return fmt.Errorf("topoopt: LinkBandwidth must be positive, got %g", o.LinkBandwidth)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("topoopt: Parallelism must be >= 0, got %d", o.Parallelism)
	}
	if o.Parallelism > flexnet.MaxParallelism {
		return fmt.Errorf("topoopt: Parallelism must be <= %d, got %d", flexnet.MaxParallelism, o.Parallelism)
	}
	if o.BatchPerGPU < 0 {
		return fmt.Errorf("topoopt: BatchPerGPU must be >= 0, got %d", o.BatchPerGPU)
	}
	// A zero PeakFLOPS selects the default A100 (Canonical); any other GPU
	// must describe one.
	if o.GPU.PeakFLOPS != 0 {
		if err := o.GPU.Validate(); err != nil {
			return fmt.Errorf("topoopt: %w", err)
		}
	}
	return nil
}

// Canonical returns o with defaulted fields made explicit — the same
// defaults the optimization itself applies (Rounds 3, MCMCIters 200, GPU
// A100, Parallelism 1) — so an omitted field and its explicit default
// describe the same computation. The serving layer fingerprints canonical
// options, letting both spellings share one cache entry. BatchPerGPU
// stays as-is: its default is per-model and only known after preset
// resolution. SearchWorkers is untouched: it never affects results and is
// excluded from the wire format anyway.
func (o Options) Canonical() Options {
	if o.Rounds <= 0 {
		o.Rounds = 3
	}
	if o.MCMCIters <= 0 {
		o.MCMCIters = flexnet.DefaultMCMCIters
	}
	if o.GPU.PeakFLOPS == 0 {
		o.GPU = A100
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 1
	}
	return o
}

// Circuit is one directed optical circuit of the plan: the TX fiber of
// From's interface patched to an RX fiber of To.
type Circuit struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// RingSpec describes the AllReduce rings selected for one group.
type RingSpec struct {
	Members []int `json:"members"`
	// Ps are the "+p" generation rules (co-prime with the group size).
	Ps []int `json:"ps"`
}

// Plan is the deployable output of Optimize.
type Plan struct {
	// Strategy is the chosen parallelization strategy.
	Strategy Strategy
	// Circuits lists the patch-panel connections to program.
	Circuits []Circuit
	// Rings are the TotientPerms AllReduce permutations per group, to be
	// installed into the collective library (the paper's NCCL patch).
	Rings []RingSpec
	// Routes maps src -> dst -> node path for host-based forwarding.
	Routes map[int]map[int][]int
	// DegreeAllReduce / DegreeMP is the interface split of Algorithm 1.
	DegreeAllReduce int
	DegreeMP        int
	// PredictedIteration is the flow-level simulated iteration time
	// breakdown.
	PredictedIteration IterationBreakdown
	// Demand is the traffic demand of the chosen strategy.
	Demand Demand
}

// IterationBreakdown splits an iteration into its phases (§5.4's no-overlap
// accounting).
type IterationBreakdown struct {
	MPSeconds        float64 `json:"mp_seconds"`
	ComputeSeconds   float64 `json:"compute_seconds"`
	AllReduceSeconds float64 `json:"allreduce_seconds"`
	BandwidthTax     float64 `json:"bandwidth_tax"`
}

// Total returns the full iteration time in seconds.
func (b IterationBreakdown) Total() float64 {
	return b.MPSeconds + b.ComputeSeconds + b.AllReduceSeconds
}

// Optimize co-optimizes topology and parallelization strategy for the
// model under the given options (§4's alternating optimization).
func Optimize(m *Model, o Options) (*Plan, error) {
	return OptimizeContext(context.Background(), m, o)
}

// OptimizeContext is Optimize with cancellation: ctx is polled between
// MCMC iterations, between alternating-optimization rounds and before the
// final flow-level simulation, so a cancelled or expired context aborts
// the search promptly with ctx.Err(). Cancellation never interrupts a
// simulation in flight, leaving reused simulators in a consistent state.
func OptimizeContext(ctx context.Context, m *Model, o Options) (*Plan, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	res, err := flexnet.CoOptimizeContext(ctx, m, flexnet.CoOptConfig{
		N: o.Servers, Degree: o.Degree, LinkBW: o.LinkBandwidth,
		Batch: o.BatchPerGPU, Rounds: o.Rounds, MCMCIters: o.MCMCIters,
		Seed: o.Seed, PrimeOnly: o.PrimeOnly, GPU: o.GPU,
		Parallelism: o.Parallelism, SearchWorkers: o.SearchWorkers,
		Progress: o.Progress, Warm: o.WarmStart, Patience: o.Patience,
		OnWarmStart: o.OnWarmStart, OnBest: o.OnBest,
	})
	if err != nil {
		return nil, err
	}
	return planFromResult(res, o.Servers), nil
}

func planFromResult(res *flexnet.CoOptResult, n int) *Plan {
	p := &Plan{
		Strategy:        res.Strategy,
		DegreeAllReduce: res.Topo.DegreeAllReduce,
		DegreeMP:        res.Topo.DegreeMP,
		Demand:          res.Demand,
		PredictedIteration: IterationBreakdown{
			MPSeconds:        res.IterTime.MPTime,
			ComputeSeconds:   res.IterTime.ComputeTime,
			AllReduceSeconds: res.IterTime.AllReduceTime,
			BandwidthTax:     res.IterTime.BandwidthTax,
		},
	}
	for _, e := range res.Topo.Network.G.Edges() {
		p.Circuits = append(p.Circuits, Circuit{From: e.From, To: e.To})
	}
	for _, gr := range res.Topo.Rings {
		p.Rings = append(p.Rings, RingSpec{
			Members: append([]int(nil), gr.Members...),
			Ps:      append([]int(nil), gr.Ps...),
		})
	}
	p.Routes = make(map[int]map[int][]int)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if nodes := res.Topo.Routes.Get(s, d); nodes != nil {
				if p.Routes[s] == nil {
					p.Routes[s] = make(map[int][]int)
				}
				p.Routes[s][d] = append([]int(nil), nodes...)
			}
		}
	}
	return p
}

// Architecture identifies a comparison fabric (§5.1). Every architecture
// is a self-describing backend in the internal/arch registry; the names
// below are the registered identities of the built-in family.
type Architecture string

const (
	ArchTopoOpt  Architecture = "TopoOpt"
	ArchIdeal    Architecture = "IdealSwitch"
	ArchFatTree  Architecture = "Fat-tree"
	ArchOversub  Architecture = "OversubFatTree"
	ArchExpander Architecture = "Expander"
	ArchSiPML    Architecture = "SiP-ML"
	ArchOCS      Architecture = "OCS-reconfig"
	ArchTorus    Architecture = "Torus"
	ArchSiPRing  Architecture = "SiP-Ring"
)

// Architectures lists every registered fabric backend in stable display
// order: the §5.1 comparison set in the paper's order, then later
// additions. The list is derived from the registry, so it can never
// drift from what Compare and Cost actually accept.
func Architectures() []Architecture {
	names := arch.Names()
	out := make([]Architecture, len(names))
	for i, n := range names {
		out[i] = Architecture(n)
	}
	return out
}

// unknownArchitecture is the shared "not registered" error: it lists the
// registered names so callers (and HTTP clients) see the menu instead of
// guessing.
func unknownArchitecture(a Architecture) error {
	return fmt.Errorf("topoopt: unknown architecture %q (registered: %s)",
		a, strings.Join(arch.Names(), ", "))
}

// archOptions converts public Options to the registry's option set.
func archOptions(o Options) arch.Options {
	return arch.Options{
		Servers: o.Servers, Degree: o.Degree, LinkBW: o.LinkBandwidth,
		Batch: o.BatchPerGPU, Rounds: o.Rounds, MCMCIters: o.MCMCIters,
		Seed: o.Seed, PrimeOnly: o.PrimeOnly, GPU: o.GPU,
		Parallelism: o.Parallelism, SearchWorkers: o.SearchWorkers,
	}
}

// CompareResult is the iteration time of one architecture for one model.
type CompareResult struct {
	Arch      Architecture       `json:"arch"`
	Iteration IterationBreakdown `json:"iteration"`
	// CostUSD is the §5.2 interconnect cost.
	CostUSD float64 `json:"cost_usd"`
}

// Compare evaluates a model across architectures at equal nominal degree
// and bandwidth: TopoOpt and Expander get d interfaces of B; Ideal Switch
// gets a non-blocking d×B per server; Fat-tree gets the cost-equivalent
// reduced bandwidth (§5.1); Oversub gets d×B with a halved fabric;
// SiP-ML and OCS-reconfig run the reconfigurable heuristic.
func Compare(m *Model, o Options, archs ...Architecture) ([]CompareResult, error) {
	return CompareContext(context.Background(), m, o, archs...)
}

// CompareContext is Compare with cancellation: ctx is polled between
// architectures and between MCMC iterations inside each baseline search.
func CompareContext(ctx context.Context, m *Model, o Options, archs ...Architecture) ([]CompareResult, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	if len(archs) == 0 {
		archs = Architectures()
	}
	ao := archOptions(o)
	var out []CompareResult
	for _, a := range archs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b, ok := arch.Lookup(string(a))
		if !ok {
			return nil, unknownArchitecture(a)
		}
		cr := CompareResult{Arch: a}
		c, err := b.Cost(ao)
		if err != nil {
			// A zero CostUSD would be indistinguishable from "free":
			// surface pricing failures instead of swallowing them.
			return nil, fmt.Errorf("topoopt: pricing %s: %w", a, err)
		}
		cr.CostUSD = c
		it, err := arch.Evaluate(ctx, b, m, ao)
		if err != nil {
			return nil, err
		}
		cr.Iteration = IterationBreakdown{
			MPSeconds: it.MPSeconds, ComputeSeconds: it.ComputeSeconds,
			AllReduceSeconds: it.AllReduceSeconds, BandwidthTax: it.BandwidthTax,
		}
		out = append(out, cr)
	}
	return out, nil
}

// Cost returns the §5.2 interconnect cost in USD of an architecture at
// the given scale, dispatching to the architecture's registered backend.
func Cost(a Architecture, servers, degree int, linkBandwidth float64) (float64, error) {
	b, ok := arch.Lookup(string(a))
	if !ok {
		return 0, unknownArchitecture(a)
	}
	return b.Cost(arch.Options{Servers: servers, Degree: degree, LinkBW: linkBandwidth})
}
