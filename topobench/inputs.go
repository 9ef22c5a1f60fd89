package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"topoopt"
	"topoopt/internal/serve"
)

// Request classes. A percentile is only taken within one class.
const (
	classHit     = "hit"     // exact repeat of a plan the daemon holds
	classCold    = "cold"    // first plan of a model/server bucket
	classWarm    = "warm"    // near-miss replan, warm-started from its bucket
	classCompare = "compare" // §5.1 comparison across every fabric
)

// storeSize is the number of plans in the boot store: more than the
// daemon's 256-entry cache, so booting decodes records it then evicts.
const storeSize = 320

// request is one HTTP call of a workload cycle.
type request struct {
	path  string // /v1/plan or /v1/compare
	class string
	body  []byte
	plan  serve.PlanRequest    // plan requests
	cmp   serve.CompareRequest // compare requests
}

// inputs is everything one seed generates for a workload.
type inputs struct {
	// store lists the boot store's plan requests in write order: filler
	// first, then the hit working set, then the replan donors.
	store []serve.PlanRequest
	// reqs is one cycle's requests; lanes[i] lists the indices lane i
	// sends, in order.
	reqs  []*request
	lanes [][]int
	// probe is a comparison the traced run replays on workloads whose own
	// requests never cross the fabric layers.
	probe *request
}

func planRequest(preset, section string, o topoopt.Options) serve.PlanRequest {
	return serve.PlanRequest{Model: topoopt.ModelSpec{Preset: preset, Section: section}, Options: o}
}

func newPlanCall(class string, pr serve.PlanRequest) *request {
	b, err := json.Marshal(pr)
	if err != nil {
		panic(fmt.Sprintf("topobench: marshal plan request: %v", err))
	}
	return &request{path: "/v1/plan", class: class, body: b, plan: pr}
}

func newCompareCall(cr serve.CompareRequest) *request {
	b, err := json.Marshal(cr)
	if err != nil {
		panic(fmt.Sprintf("topobench: marshal compare request: %v", err))
	}
	return &request{path: "/v1/compare", class: classCompare, body: b, cmp: cr}
}

// bucket is a model and server count: the similarity index's hard-match
// key, so each replan unit below owns one.
type bucket struct {
	preset, section string
	n, degree       int
	bw              float64 // nominal link bandwidth, bits/s
}

// replanUnit is one job of the replan stream: a cold base plan and the
// near-miss replans that warm-start from it. Each near-miss perturbs one
// option of the base, a different one each, so the base is the nearest
// plan in the bucket for every near-miss.
type replanUnit struct {
	base  serve.PlanRequest
	nears []serve.PlanRequest
	donor bool // base is written to the boot store, not sent
}

// The fixed replan units do not depend on the seed. faultUnits are the
// warm-versus-cold faults: a near-miss in each returns a slower plan than
// the same request planned cold, on every run. improvingUnits are jobs
// whose server count does not divide the table count, so the search beats
// its hybrid start; their warm replans match or beat cold.
func faultUnits() []replanUnit {
	return []replanUnit{
		// The warm start from a 31.25 Gbps neighbour leads the chain to a
		// worse optimum: 577.5 ms warm against 572.2 ms cold.
		{base: planRequest("dlrm", "6", topoopt.Options{Servers: 8, Degree: 2, LinkBandwidth: 31.25e9}),
			nears: []serve.PlanRequest{planRequest("dlrm", "6", topoopt.Options{Servers: 8, Degree: 2, LinkBandwidth: 25e9})}},
		// The neighbour's 25-proposal search kept the hybrid start, so the
		// warm start is rejected, yet the patience early exit still cuts
		// the search short: 823.7 ms warm against 804.9 ms cold.
		{base: planRequest("dlrm", "6", topoopt.Options{Servers: 32, Degree: 2, LinkBandwidth: 25e9, MCMCIters: 25}),
			nears: []serve.PlanRequest{planRequest("dlrm", "6", topoopt.Options{Servers: 32, Degree: 2, LinkBandwidth: 25e9, Seed: 1})}},
		// A unit built like the improving ones, in a bucket where the server
		// count does not divide the table count: the seed near-miss gives
		// 26.3397 ms warm against 26.3187 ms cold, the bandwidth near-miss
		// 23.9095 against 23.8928 ms. The budget near-miss ties.
		unitFrom(bucket{"dlrm", "5.6", 10, 4, 100e9},
			topoopt.Options{Servers: 10, Degree: 4, LinkBandwidth: 100e9, Seed: 7, MCMCIters: 200}, 8),
	}
}

func improvingUnits() []replanUnit {
	var us []replanUnit
	for _, b := range []bucket{
		{"dlrm", "5.6", 12, 4, 100e9}, {"ncf", "", 12, 4, 100e9},
		{"dlrm", "6", 10, 4, 25e9}, {"dlrm", "5.3", 12, 4, 100e9},
	} {
		o := topoopt.Options{Servers: b.n, Degree: b.degree, LinkBandwidth: b.bw, Seed: 7, MCMCIters: 200}
		us = append(us, unitFrom(b, o, 8))
	}
	return us
}

// unitFrom builds a unit with the three near-misses: another seed, 25%
// more bandwidth, 100 more proposals.
func unitFrom(b bucket, o topoopt.Options, seed2 int64) replanUnit {
	u := replanUnit{base: planRequest(b.preset, b.section, o)}
	s, bw, it := o, o, o
	s.Seed = seed2
	bw.LinkBandwidth *= 1.25
	it.MCMCIters += 100
	for _, no := range []topoopt.Options{s, bw, it} {
		u.nears = append(u.nears, planRequest(b.preset, b.section, no))
	}
	return u
}

// seededUnit draws a unit in a bucket whose server count divides the
// table count. There the hybrid start is balanced and the search never
// beats it, so a warm replan returns the cold plan whatever the seed. The
// seed moves the bandwidth by up to ±5%; the search seed stays fixed, so
// the search's cost, and with it the latency mix, hardly moves.
func seededUnit(rng *rand.Rand, b bucket, donor bool) replanUnit {
	o := topoopt.Options{Servers: b.n, Degree: b.degree,
		LinkBandwidth: b.bw * (0.95 + 0.1*rng.Float64()), Seed: 1, MCMCIters: 200}
	u := unitFrom(b, o, 2)
	u.donor = donor
	return u
}

// hitWorkingSet is 40 plans of models without shardable layers at 16 to
// 128 servers (responses of 10 KB to 800 KB), eight per server count, so
// the median and the tail each fall inside one server-count class.
func hitWorkingSet(rng *rand.Rand) []serve.PlanRequest {
	var set []serve.PlanRequest
	for _, n := range []int{16, 32, 64, 96, 128} {
		for _, preset := range []string{"bert", "resnet50", "vgg16", "candle"} {
			for _, d := range []int{4, 8} {
				set = append(set, planRequest(preset, "", topoopt.Options{Servers: n, Degree: d,
					LinkBandwidth: 100e9 * (0.95 + 0.1*rng.Float64()), Seed: 1 + rng.Int63n(1<<30)}))
			}
		}
	}
	return set
}

// filler is cheap small plans that fill the boot store past the cache.
func filler(rng *rand.Rand, count int) []serve.PlanRequest {
	presets := []string{"bert", "resnet50", "vgg16", "candle"}
	ns := []int{8, 12, 16, 24}
	out := make([]serve.PlanRequest, count)
	for i := range out {
		out[i] = planRequest(presets[i%4], "", topoopt.Options{Servers: ns[(i/4)%4], Degree: 2 + 2*((i/16)%2),
			LinkBandwidth: 100e9, Seed: 1 + rng.Int63n(1<<30)})
	}
	return out
}

var (
	seededBuckets = []bucket{
		{"dlrm", "5.3", 16, 4, 100e9}, {"ncf", "", 16, 4, 100e9},
		{"dlrm", "6", 12, 4, 25e9}, {"dlrm", "5.6", 8, 4, 100e9},
	}
	donorBuckets = []bucket{
		{"dlrm", "5.6", 16, 4, 100e9}, {"ncf", "", 8, 4, 100e9}, {"dlrm", "5.3", 8, 2, 100e9},
	}
)

// generate builds a workload's inputs from the seed.
func generate(workload string, seed int64, lanes int) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	hit := hitWorkingSet(rng)
	var donors []replanUnit
	for _, b := range donorBuckets {
		donors = append(donors, seededUnit(rng, b, true))
	}
	in := &inputs{store: filler(rng, storeSize-len(hit)-len(donors))}
	in.store = append(in.store, hit...)
	for _, u := range donors {
		in.store = append(in.store, u.base)
	}
	grid := compareGrid(rng)
	in.probe = grid[0]

	switch workload {
	case "hit":
		for _, pr := range hit {
			in.reqs = append(in.reqs, newPlanCall(classHit, pr))
		}
		// Lane 0 takes the degree-4 plans, lane 1 the degree-8 ones: four
		// of every server count each.
		in.lanes = splitLanes(len(in.reqs), lanes, func(i int) int { return i })
	case "replan":
		var units []replanUnit
		units = append(units, faultUnits()...)
		units = append(units, improvingUnits()...)
		for _, b := range seededBuckets {
			units = append(units, seededUnit(rng, b, false))
		}
		units = append(units, donors...)
		in.lanes = make([][]int, lanes)
		for ui, u := range units {
			lane := &in.lanes[replanLane[ui]%lanes]
			if !u.donor {
				*lane = append(*lane, len(in.reqs))
				in.reqs = append(in.reqs, newPlanCall(classCold, u.base))
			}
			for _, nr := range u.nears {
				*lane = append(*lane, len(in.reqs))
				in.reqs = append(in.reqs, newPlanCall(classWarm, nr))
			}
		}
		return in, nil
	case "compare":
		in.reqs = grid
		// Lane 0 takes degree 4, lane 1 degree 8: each gets one of every
		// model at both bandwidths, so the lanes carry equal work.
		in.lanes = splitLanes(len(in.reqs), lanes, func(i int) int { return i / 8 })
	default:
		return nil, fmt.Errorf("unknown workload %q (want hit, replan or compare)", workload)
	}
	return in, nil
}

// replanLane assigns the replan units (fault, improving, seeded, donor,
// in that order) to two lanes balanced by their measured cost. Units
// never share a bucket, so the lanes cannot change each other's warm
// starts. A lane sends its units in this order whatever the seed: which
// requests overlap in time moves every latency.
var replanLane = []int{0, 0, 1, 0, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1}

// splitLanes deals request indices 0..n-1 to lanes by key.
func splitLanes(n, lanes int, key func(int) int) [][]int {
	out := make([][]int, lanes)
	for i := 0; i < n; i++ {
		l := key(i) % lanes
		out[l] = append(out[l], i)
	}
	return out
}

// compareGrid is the §5.1 comparison at 128 servers for the four models
// without shardable layers, at degree 4 and 8 and at 100 and 400 Gbps.
// The seed moves each bandwidth by up to ±1%; the search seed is fixed,
// so the Expander's random construction does not swing the averages.
func compareGrid(rng *rand.Rand) []*request {
	var grid []*request
	for _, d := range []int{4, 8} {
		for _, preset := range []string{"bert", "resnet50", "vgg16", "candle"} {
			for _, bw := range []float64{100e9, 400e9} {
				grid = append(grid, newCompareCall(serve.CompareRequest{
					Model: topoopt.ModelSpec{Preset: preset},
					Options: topoopt.Options{Servers: 128, Degree: d, Seed: 1,
						LinkBandwidth: bw * (0.99 + 0.02*rng.Float64())},
				}))
			}
		}
	}
	return grid
}
