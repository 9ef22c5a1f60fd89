package fleet

import (
	"context"
	"math/rand"
	"sort"
	"testing"
)

// simulateArrivals is the serial reference model of Appendix C's dynamic
// arrivals: jobs are served FIFO in arrival order (equal AtS in input
// order), each waits until enough of the n servers are free, then pays
// its provisioning mode's activation latency, and activations happen one
// at a time. Under look-ahead the next job's topology is wired on the
// second plane from the moment the previous activation completes. It
// returns each job's start delay, indexed like jobs. The fleet engine
// must reproduce it exactly for fixed-duration jobs under the fifo
// policy (TestFleetSubsumesSimulateArrivals).
func simulateArrivals(n int, jobs []JobSpec, mode provMode) []float64 {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].AtS < jobs[order[b]].AtS })
	type running struct {
		end     float64
		servers int
	}
	var active []running
	free := n
	delays := make([]float64, len(jobs))
	lookaheadReadyAt, now := 0.0, 0.0
	for _, i := range order {
		j := jobs[i]
		if j.AtS > now {
			now = j.AtS
		}
		for free < j.Workers {
			earliest := 0
			for k := 1; k < len(active); k++ {
				if active[k].end < active[earliest].end {
					earliest = k
				}
			}
			if active[earliest].end > now {
				now = active[earliest].end
			}
			free += active[earliest].servers
			active = append(active[:earliest], active[earliest+1:]...)
		}
		var activation float64
		switch mode {
		case provPatch:
			activation = patchLatencyS
		case provLookahead:
			activation = flipLatencyS
			if lookaheadReadyAt > now {
				activation = (lookaheadReadyAt - now) + flipLatencyS
			}
			lookaheadReadyAt = now + activation + patchLatencyS
		default:
			activation = ocsSwitchS
		}
		start := now + activation
		delays[i] = start - j.AtS
		active = append(active, running{end: start + j.FixedDurationS, servers: j.Workers})
		free -= j.Workers
		now = start
	}
	return delays
}

// arrivalDelays runs jobs as fixed-duration reservations on an n-server
// fifo cluster and returns each job's start delay, indexed like jobs.
func arrivalDelays(t *testing.T, n int, prov string, jobs []JobSpec) []float64 {
	t.Helper()
	res, err := Run(context.Background(), Spec{
		Servers: n, Degree: 1, LinkBandwidth: 1e9,
		Arch: "Fat-tree", Policy: PolicyFIFO, Provisioning: prov,
		Trace: TraceSpec{Inline: jobs},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Searches != 0 {
		t.Fatalf("fixed-duration jobs ran %d strategy searches, want 0", res.Summary.Searches)
	}
	delays := make([]float64, len(res.Jobs))
	for i, j := range res.Jobs {
		delays[i] = j.QueueDelayS
	}
	return delays
}

// TestFleetSubsumesSimulateArrivals: with fixed-duration jobs and the
// FIFO policy, the event engine reproduces the serial reference model's
// start delays exactly, under every provisioning mode, on seeded random
// arrival lists with At ties, jobs that queue for servers and jobs
// shorter than the patch latency.
func TestFleetSubsumesSimulateArrivals(t *testing.T) {
	modes := []struct {
		name string
		mode provMode
	}{
		{ProvPatch, provPatch},
		{ProvLookahead, provLookahead},
		{ProvOCS, provOCS},
	}
	rng := rand.New(rand.NewSource(1))
	var ties, waits int
	for list := 0; list < 300; list++ {
		n := 8 * (1 + rng.Intn(3))
		jobs := make([]JobSpec, 1+rng.Intn(12))
		for i := range jobs {
			jobs[i] = JobSpec{
				// Coarse arrival slots make At ties common.
				AtS:            float64(rng.Intn(8)) * 150,
				Workers:        1 + rng.Intn(n),
				FixedDurationS: 10 + rng.Float64()*2000,
			}
		}
		seen := map[float64]bool{}
		for _, j := range jobs {
			if seen[j.AtS] {
				ties++
				break
			}
			seen[j.AtS] = true
		}
		for _, m := range modes {
			want := simulateArrivals(n, jobs, m.mode)
			got := arrivalDelays(t, n, m.name, jobs)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("list %d %s: job %d delay %g, want the reference's %g (jobs %+v)",
						list, m.name, i, got[i], want[i], jobs)
				}
				if m.mode == provOCS && want[i] > 1 {
					waits++
				}
			}
		}
	}
	if ties == 0 || waits == 0 {
		t.Fatalf("generator produced %d lists with At ties and %d queued jobs; want both > 0", ties, waits)
	}
}

// TestFleetArrivalsModes: with arrivals spaced wider than the patch
// latency, cold patch panels pay the full patch latency per job, OCS only
// its switching latency, and look-ahead hides every job's wiring behind
// the 1×2 switch flip.
func TestFleetArrivalsModes(t *testing.T) {
	jobs := []JobSpec{
		{AtS: 0, Workers: 8, FixedDurationS: 3600},
		{AtS: 600, Workers: 8, FixedDurationS: 3600},
		{AtS: 1200, Workers: 8, FixedDurationS: 3600},
	}
	for _, m := range []struct {
		prov string
		act  float64
	}{
		{ProvPatch, patchLatencyS},
		{ProvLookahead, flipLatencyS},
		{ProvOCS, ocsSwitchS},
	} {
		for i, d := range arrivalDelays(t, 32, m.prov, jobs) {
			if want := (jobs[i].AtS + m.act) - jobs[i].AtS; d != want {
				t.Errorf("%s: job %d delay %g, want %g", m.prov, i, d, want)
			}
		}
	}
}

// TestFleetArrivalsQueueing: a job that finds the cluster full waits for
// the running job to release its servers.
func TestFleetArrivalsQueueing(t *testing.T) {
	d := arrivalDelays(t, 8, ProvOCS, []JobSpec{
		{AtS: 0, Workers: 8, FixedDurationS: 100},
		{AtS: 1, Workers: 8, FixedDurationS: 100},
	})
	// Job 0 holds the cluster over [0.010, 100.010]; job 1 (arrived at 1)
	// starts one switch latency after that. Expectations add float64
	// variables, so they round exactly as the engine's sums do.
	var ocs float64 = ocsSwitchS
	if want := ocs + 100 + ocs - 1; d[1] != want {
		t.Errorf("queued job delay %g, want %g", d[1], want)
	}
}

// TestFleetArrivalsSimultaneous pins the At tie-break rule: equal-At jobs
// are admitted in input order (stable by index), which under look-ahead
// provisioning decides who gets the pre-wired plane.
func TestFleetArrivalsSimultaneous(t *testing.T) {
	var flip float64 = flipLatencyS
	// Three simultaneous arrivals on a cluster that fits one at a time:
	// queueing and look-ahead serialize them.
	la := arrivalDelays(t, 8, ProvLookahead, []JobSpec{
		{AtS: 0, Workers: 8, FixedDurationS: 200},
		{AtS: 0, Workers: 8, FixedDurationS: 200},
		{AtS: 0, Workers: 8, FixedDurationS: 200},
	})
	// Job 0 pays only the flip. Its activation starts wiring the next
	// plane, ready at flip+patch — before job 0 releases its servers at
	// flip+200 — so job 1 pays only the flip again, and so does job 2.
	want := []float64{flip, flip + 200 + flip, flip + 200 + flip + 200 + flip}
	for i := range want {
		if la[i] != want[i] {
			t.Errorf("job %d delay %g, want %g", i, la[i], want[i])
		}
	}
	// Distinguishable durations show the order is by index, not by
	// duration: index 1 waits out index 0's 50 s run, not a 500 s one.
	var ocs float64 = ocsSwitchS
	d := arrivalDelays(t, 8, ProvOCS, []JobSpec{
		{AtS: 0, Workers: 8, FixedDurationS: 50},
		{AtS: 0, Workers: 8, FixedDurationS: 500},
	})
	if d[0] != ocs || d[1] != ocs+50+ocs {
		t.Errorf("delays %v, want [%g %g]", d, ocs, ocs+50+ocs)
	}
}
