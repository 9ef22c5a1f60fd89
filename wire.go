// Canonical JSON wire format for the planning service (cmd/topooptd and
// internal/serve): a ModelSpec that names a workload preset instead of
// shipping the operator graph, and byte-stable (de)serialization for Plan.
// Marshal → Unmarshal → Marshal produces identical bytes, which is what
// lets the service fingerprint requests and cache serialized plans.
package topoopt

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"topoopt/internal/arch"
	"topoopt/internal/fleet"
	"topoopt/internal/model"
)

// Fleet wire format: the trace-driven multi-job cluster simulator
// (internal/fleet) is surfaced under the same canonical-JSON contract as
// Plan — a canonicalized FleetSpec marshals byte-stably, so the planning
// service fingerprints and caches whole cluster runs, and FleetResult
// contains no maps, so two identical runs serialize identically.
type (
	// FleetSpec configures a fleet simulation (cluster, fabric backend,
	// placement policy, provisioning mode, trace, failures).
	FleetSpec = fleet.Spec
	// FleetTraceSpec describes job arrivals (synthetic §2.2 sampling or
	// an inline job list).
	FleetTraceSpec = fleet.TraceSpec
	// FleetJobSpec is one explicit job of an inline trace.
	FleetJobSpec = fleet.JobSpec
	// FleetFailureSpec injects seeded link/port failures.
	FleetFailureSpec = fleet.FailureSpec
	// FleetResult is a full run: per-job JCT/queueing/slowdown records,
	// the utilization series and aggregate statistics.
	FleetResult = fleet.Result
	// FleetJobResult is one job's lifetime within a FleetResult.
	FleetJobResult = fleet.JobResult
	// FleetSweepResult is a merged K-replica Monte Carlo sweep: per-metric
	// distributions (p50/p90/p99, mean with 95% CI) across seed-replicas.
	FleetSweepResult = fleet.SweepResult
)

// RunFleet executes a fleet simulation. The result is deterministic in
// the canonicalized spec alone; ctx cancels between events and inside
// every embedded strategy search.
func RunFleet(ctx context.Context, spec FleetSpec) (*FleetResult, error) {
	return fleet.Run(ctx, spec)
}

// MaxFleetSweepReplicas bounds the replica count of one sweep.
const MaxFleetSweepReplicas = fleet.MaxSweepReplicas

// RunFleetSweep executes a K-replica Monte Carlo sweep of a fleet spec:
// replica i runs under a splitmix64-derived seed (replica 0 keeps the
// root seed, so K=1 reproduces RunFleet exactly), spec.SearchWorkers
// replicas run concurrently, and the merged distributions are
// byte-stable at any worker count. progress, when non-nil, is called
// after each replica completes with (done, total) and may be called
// concurrently.
func RunFleetSweep(ctx context.Context, spec FleetSpec, replicas int, progress func(done, total int)) (*FleetSweepResult, error) {
	return fleet.Sweep(ctx, spec, replicas, progress)
}

// FleetScenarios lists the built-in fleet scenario presets.
func FleetScenarios() []string { return fleet.Scenarios() }

// FleetScenario returns the named preset spec (steady, diurnal-burst,
// failure-storm).
func FleetScenario(name string) (FleetSpec, error) { return fleet.Scenario(name) }

// ModelSpec identifies a workload on the wire: a preset name from List 1
// (Appendix D), the paper section whose configuration to use, and optional
// overrides. It replaces shipping the full operator graph: the daemon
// resolves the spec locally, so requests stay small and fingerprintable.
type ModelSpec struct {
	// Preset is one of "dlrm", "candle", "bert", "ncf", "resnet50",
	// "vgg16" (case-insensitive).
	Preset string `json:"preset"`
	// Section selects the preset configuration: "5.3" (default), "5.6"
	// or "6".
	Section string `json:"section,omitempty"`
	// BatchPerGPU overrides the preset's per-GPU batch size when > 0;
	// negative values are rejected.
	BatchPerGPU int `json:"batch_per_gpu,omitempty"`
	// VGGDepth overrides the VGG variant (16 or 19) when nonzero.
	VGGDepth int `json:"vgg_depth,omitempty"`
}

// Canonical normalizes spelling variants that resolve to the same model
// — preset aliases and case ("BERT", "vgg", "resnet"), the implicit
// default section, the default VGG depth — so equivalent specs compare
// (and fingerprint) identically. Unknown presets pass through unchanged;
// Resolve rejects them with a proper error.
func (sp ModelSpec) Canonical() ModelSpec {
	sp.Preset = strings.ToLower(sp.Preset)
	switch sp.Preset {
	case "resnet":
		sp.Preset = "resnet50"
	case "vgg":
		sp.Preset = "vgg16"
	}
	if sp.Section == "" {
		sp.Section = "5.3"
	}
	// Only normalize the default depth where the override is legal:
	// {preset: "bert", vgg_depth: 16} is invalid and must stay distinct
	// from plain bert so it cannot alias a valid cache entry.
	if sp.VGGDepth == 16 && sp.Preset == "vgg16" {
		sp.VGGDepth = 0
	}
	return sp
}

// ParseArchitecture validates a wire architecture name against the
// backend registry. Unlike a plain cast, a failure names the registered
// backends, so services can hand clients the menu in a structured 400
// instead of a late 500. Names are exact (registry identities are part of
// the wire format and of comparison fingerprints).
func ParseArchitecture(name string) (Architecture, error) {
	if _, ok := arch.Lookup(name); !ok {
		return "", unknownArchitecture(Architecture(name))
	}
	return Architecture(name), nil
}

// ParseSection converts a wire section name ("5.3", "5.6", "6"; "" means
// "5.3") to a Section.
func ParseSection(s string) (Section, error) {
	switch s {
	case "", "5.3":
		return Sec53, nil
	case "5.6":
		return Sec56, nil
	case "6":
		return Sec6, nil
	}
	return Sec53, fmt.Errorf("topoopt: unknown section %q (want 5.3, 5.6 or 6)", s)
}

// Resolve materializes the spec into a Model, applying overrides.
func (sp ModelSpec) Resolve() (*Model, error) {
	sec, err := ParseSection(sp.Section)
	if err != nil {
		return nil, err
	}
	var m *Model
	switch strings.ToLower(sp.Preset) {
	case "dlrm":
		m = DLRM(sec)
	case "candle":
		m = CANDLE(sec)
	case "bert":
		m = BERT(sec)
	case "ncf":
		m = NCF()
	case "resnet50", "resnet":
		m = ResNet50(sec)
	case "vgg16", "vgg":
		m = VGG16(sec)
		if sp.VGGDepth != 0 {
			if sp.VGGDepth != 16 && sp.VGGDepth != 19 {
				return nil, fmt.Errorf("topoopt: vgg_depth must be 16 or 19, got %d", sp.VGGDepth)
			}
			m = model.VGG(m.BatchPerGPU, sp.VGGDepth)
		}
	default:
		return nil, fmt.Errorf("topoopt: unknown preset %q (want dlrm, candle, bert, ncf, resnet50 or vgg16)", sp.Preset)
	}
	if sp.VGGDepth != 0 && !strings.HasPrefix(strings.ToLower(sp.Preset), "vgg") {
		return nil, fmt.Errorf("topoopt: vgg_depth override only applies to the vgg16 preset, not %q", sp.Preset)
	}
	if sp.BatchPerGPU < 0 {
		return nil, fmt.Errorf("topoopt: batch_per_gpu must be >= 0, got %d", sp.BatchPerGPU)
	}
	if sp.BatchPerGPU > 0 {
		m.BatchPerGPU = sp.BatchPerGPU
	}
	return m, nil
}

// PlanRoute is one host-forwarding rule of the wire format. Routes are
// serialized as a list sorted by (src, dst) so the encoding is canonical.
type PlanRoute struct {
	Src  int   `json:"src"`
	Dst  int   `json:"dst"`
	Path []int `json:"path"`
}

// planWire is the serialized layout of Plan. Strategy and Demand are
// slice-based types whose default encoding is already deterministic; only
// the Routes map needs canonical ordering.
type planWire struct {
	Strategy           Strategy           `json:"strategy"`
	Circuits           []Circuit          `json:"circuits,omitempty"`
	Rings              []RingSpec         `json:"rings,omitempty"`
	Routes             []PlanRoute        `json:"routes,omitempty"`
	DegreeAllReduce    int                `json:"degree_allreduce"`
	DegreeMP           int                `json:"degree_mp"`
	PredictedIteration IterationBreakdown `json:"predicted_iteration"`
	Demand             Demand             `json:"demand"`
}

// MarshalJSON encodes the plan in the canonical wire format: route entries
// sorted by (src, dst), everything else in declaration order. The output
// is byte-stable under Marshal → Unmarshal → Marshal. The value receiver
// matters: it makes the canonical encoding apply to Plan values and
// *Plan alike (a pointer receiver would silently fall back to the default
// map encoding for non-addressable values).
func (p Plan) MarshalJSON() ([]byte, error) {
	w := planWire{
		Strategy:           p.Strategy,
		Circuits:           p.Circuits,
		Rings:              p.Rings,
		DegreeAllReduce:    p.DegreeAllReduce,
		DegreeMP:           p.DegreeMP,
		PredictedIteration: p.PredictedIteration,
		Demand:             p.Demand,
	}
	for s, dsts := range p.Routes {
		for d, path := range dsts {
			w.Routes = append(w.Routes, PlanRoute{Src: s, Dst: d, Path: path})
		}
	}
	sort.Slice(w.Routes, func(i, j int) bool {
		if w.Routes[i].Src != w.Routes[j].Src {
			return w.Routes[i].Src < w.Routes[j].Src
		}
		return w.Routes[i].Dst < w.Routes[j].Dst
	})
	return json.Marshal(w)
}

// UnmarshalJSON decodes the canonical wire format produced by MarshalJSON.
func (p *Plan) UnmarshalJSON(data []byte) error {
	var w planWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*p = Plan{
		Strategy:           w.Strategy,
		Circuits:           w.Circuits,
		Rings:              w.Rings,
		DegreeAllReduce:    w.DegreeAllReduce,
		DegreeMP:           w.DegreeMP,
		PredictedIteration: w.PredictedIteration,
		Demand:             w.Demand,
	}
	if len(w.Routes) > 0 {
		p.Routes = make(map[int]map[int][]int)
		for _, r := range w.Routes {
			if p.Routes[r.Src] == nil {
				p.Routes[r.Src] = make(map[int][]int)
			}
			p.Routes[r.Src][r.Dst] = r.Path
		}
	}
	return nil
}
