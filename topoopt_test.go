package topoopt

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func smallOpts() Options {
	return Options{Servers: 12, Degree: 4, LinkBandwidth: 25e9,
		Rounds: 1, MCMCIters: 30, Seed: 1}
}

func TestOptimizeProducesDeployablePlan(t *testing.T) {
	m := DLRM(Sec6)
	plan, err := Optimize(m, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Circuits) == 0 {
		t.Fatal("no circuits")
	}
	// Degree constraint: TX fibers per server ≤ d.
	tx := map[int]int{}
	for _, c := range plan.Circuits {
		tx[c.From]++
	}
	for v, d := range tx {
		if d > 4 {
			t.Errorf("server %d uses %d TX fibers > 4", v, d)
		}
	}
	if len(plan.Rings) == 0 {
		t.Error("no AllReduce rings")
	}
	if plan.DegreeAllReduce+plan.DegreeMP != 4 {
		t.Errorf("degree split %d+%d != 4", plan.DegreeAllReduce, plan.DegreeMP)
	}
	if plan.PredictedIteration.Total() <= 0 {
		t.Error("iteration prediction must be positive")
	}
	// Routes cover every ordered server pair.
	for s := 0; s < 12; s++ {
		for d := 0; d < 12; d++ {
			if s == d {
				continue
			}
			if plan.Routes[s][d] == nil {
				t.Fatalf("no route %d->%d", s, d)
			}
		}
	}
	if err := plan.Strategy.Validate(m); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeValidation(t *testing.T) {
	m := CANDLE(Sec6)
	cases := []struct {
		name string
		o    Options
	}{
		{"Servers=1", Options{Servers: 1, Degree: 4, LinkBandwidth: 1e9}},
		{"Degree=0", Options{Servers: 8, Degree: 0, LinkBandwidth: 1e9}},
		{"zero bandwidth", Options{Servers: 8, Degree: 4}},
		{"GPU without mem_bandwidth", Options{Servers: 8, Degree: 4, LinkBandwidth: 1e9,
			GPU: GPU{PeakFLOPS: 1e12}}},
		{"negative peak_flops", Options{Servers: 8, Degree: 4, LinkBandwidth: 1e9,
			GPU: GPU{PeakFLOPS: -1e12, MemBandwidth: 1e12}}},
		{"negative BatchPerGPU", Options{Servers: 8, Degree: 4, LinkBandwidth: 1e9, BatchPerGPU: -8}},
	}
	for _, c := range cases {
		if _, err := Optimize(m, c.o); err == nil {
			t.Errorf("%s should fail", c.name)
		}
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	m := DLRM(Sec6)
	p1, err := Optimize(m, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Optimize(m, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if p1.PredictedIteration.Total() != p2.PredictedIteration.Total() {
		t.Error("same seed should reproduce the plan")
	}
	if len(p1.Circuits) != len(p2.Circuits) {
		t.Error("circuit lists differ across runs")
	}
}

func TestCompareShape(t *testing.T) {
	// The §5.3 headline at small scale: TopoOpt ≈ Ideal, both beating the
	// cost-equivalent Fat-tree; Expander no better than TopoOpt for
	// AllReduce-dominated traffic.
	m := CANDLE(Sec6)
	res, err := Compare(m, smallOpts(), ArchTopoOpt, ArchIdeal, ArchFatTree)
	if err != nil {
		t.Fatal(err)
	}
	byArch := map[Architecture]CompareResult{}
	for _, r := range res {
		byArch[r.Arch] = r
		if r.Iteration.Total() <= 0 {
			t.Fatalf("%s: non-positive iteration", r.Arch)
		}
		if r.CostUSD <= 0 {
			t.Fatalf("%s: no cost", r.Arch)
		}
	}
	topoT := byArch[ArchTopoOpt].Iteration.Total()
	idealT := byArch[ArchIdeal].Iteration.Total()
	ftT := byArch[ArchFatTree].Iteration.Total()
	if topoT >= ftT {
		t.Errorf("TopoOpt %g should beat similar-cost Fat-tree %g", topoT, ftT)
	}
	if idealT > topoT*1.2 {
		t.Errorf("Ideal %g should not lose to TopoOpt %g", idealT, topoT)
	}
	// Cost ordering: Ideal most expensive of the three.
	if byArch[ArchIdeal].CostUSD <= byArch[ArchTopoOpt].CostUSD {
		t.Error("Ideal Switch should cost more than TopoOpt")
	}
}

func TestCompareUnknownArch(t *testing.T) {
	if _, err := Compare(CANDLE(Sec6), smallOpts(), Architecture("bogus")); err == nil {
		t.Error("unknown architecture should fail")
	}
}

func TestCostAPI(t *testing.T) {
	c, err := Cost(ArchTopoOpt, 128, 4, 100e9)
	if err != nil || c <= 0 {
		t.Fatalf("cost = %v err %v", c, err)
	}
	ideal, _ := Cost(ArchIdeal, 128, 4, 100e9)
	if ideal/c < 2 {
		t.Errorf("ideal/topoopt cost ratio %v, expect ~3.2", ideal/c)
	}
}

func TestPresetsExposed(t *testing.T) {
	for _, m := range []*Model{DLRM(Sec53), CANDLE(Sec56), BERT(Sec6), NCF(),
		ResNet50(Sec53), VGG16(Sec53)} {
		if len(m.Layers) == 0 {
			t.Errorf("%s: empty model", m.Name)
		}
	}
	// Registry-derived list: the §5.1 seven in the paper's order, then
	// later backends in registration-rank order.
	want := []Architecture{ArchTopoOpt, ArchIdeal, ArchFatTree, ArchOversub,
		ArchExpander, ArchSiPML, ArchOCS, ArchTorus, ArchSiPRing}
	got := Architectures()
	if len(got) != len(want) {
		t.Fatalf("architecture list = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Architectures()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestIterationBreakdownTotal(t *testing.T) {
	b := IterationBreakdown{MPSeconds: 1, ComputeSeconds: 2, AllReduceSeconds: 3}
	if b.Total() != 6 {
		t.Errorf("Total = %v, want 6", b.Total())
	}
}

func TestCompareAllArchitectures(t *testing.T) {
	// Exercise every baseline branch, including the reconfigurable
	// fabrics, at a tiny scale.
	m := CANDLE(Sec6)
	opts := Options{Servers: 8, Degree: 2, LinkBandwidth: 100e9,
		Rounds: 1, MCMCIters: 10, Seed: 3}
	res, err := Compare(m, opts, Architectures()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(Architectures()) {
		t.Fatalf("results = %d, want %d", len(res), len(Architectures()))
	}
	for _, r := range res {
		if r.Iteration.Total() <= 0 {
			t.Errorf("%s: non-positive iteration %v", r.Arch, r.Iteration)
		}
	}
}

func TestCompareDefaultsToAllArchitectures(t *testing.T) {
	m := CANDLE(Sec6)
	opts := Options{Servers: 4, Degree: 2, LinkBandwidth: 100e9,
		Rounds: 1, MCMCIters: 5, Seed: 3}
	res, err := Compare(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(Architectures()) {
		t.Fatalf("default Compare covered %d architectures", len(res))
	}
}

func TestCompareValidatesOptions(t *testing.T) {
	if _, err := Compare(CANDLE(Sec6), Options{}); err == nil {
		t.Error("zero options should fail validation")
	}
}

func TestCompareNewArchitecturesDeterministic(t *testing.T) {
	// The two registry additions must produce byte-identical results
	// across runs: fingerprint-keyed caching and the serve layer depend
	// on Compare being a pure function of (model, options, archs).
	m := CANDLE(Sec6)
	opts := Options{Servers: 9, Degree: 4, LinkBandwidth: 100e9,
		Rounds: 1, MCMCIters: 10, Seed: 3}
	run := func() []byte {
		t.Helper()
		res, err := Compare(m, opts, ArchTorus, ArchSiPRing)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 2 {
			t.Fatalf("results = %d, want 2", len(res))
		}
		for _, r := range res {
			if r.Iteration.Total() <= 0 || r.CostUSD <= 0 {
				t.Fatalf("%s: iteration %v cost %v", r.Arch, r.Iteration.Total(), r.CostUSD)
			}
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := run()
	for i := 0; i < 3; i++ {
		if again := run(); !bytes.Equal(first, again) {
			t.Fatalf("run %d differs:\n%s\n%s", i, first, again)
		}
	}
}

func TestUnknownArchErrorListsRegistry(t *testing.T) {
	_, err := Compare(CANDLE(Sec6), smallOpts(), Architecture("warpdrive"))
	if err == nil {
		t.Fatal("unknown architecture must fail")
	}
	for _, a := range Architectures() {
		if !strings.Contains(err.Error(), string(a)) {
			t.Errorf("error %q does not list %s", err, a)
		}
	}
	if _, err := Cost(Architecture("warpdrive"), 16, 4, 100e9); err == nil ||
		!strings.Contains(err.Error(), string(ArchTorus)) {
		t.Errorf("Cost error %v must list the registry", err)
	}
}

func TestParseArchitecture(t *testing.T) {
	for _, a := range Architectures() {
		got, err := ParseArchitecture(string(a))
		if err != nil || got != a {
			t.Errorf("ParseArchitecture(%s) = %v, %v", a, got, err)
		}
	}
	for _, bad := range []string{"", "topoopt", "fat-tree", "warpdrive"} {
		if _, err := ParseArchitecture(bad); err == nil {
			t.Errorf("ParseArchitecture(%q) should fail", bad)
		}
	}
}

func TestCostNewArchitectures(t *testing.T) {
	// Torus consumes at most d interfaces, so it can never exceed the
	// d-regular Expander bill; SiP-Ring sits between Expander and SiP-ML.
	n, d, b := 128, 4, 100e9
	torus, err := Cost(ArchTorus, n, d, b)
	if err != nil {
		t.Fatal(err)
	}
	exp, _ := Cost(ArchExpander, n, d, b)
	if torus > exp {
		t.Errorf("Torus %v must not exceed Expander %v", torus, exp)
	}
	ring, err := Cost(ArchSiPRing, n, d, b)
	if err != nil {
		t.Fatal(err)
	}
	sip, _ := Cost(ArchSiPML, n, d, b)
	if !(exp < ring && ring < sip) {
		t.Errorf("want Expander %v < SiP-Ring %v < SiP-ML %v", exp, ring, sip)
	}
}
