package fleet

import (
	"math"
	"math/rand"
	"sort"

	"topoopt/internal/trace"
)

// arrival is one job of the materialized trace.
type arrival struct {
	id      int
	at      float64
	family  trace.Family
	workers int
	iters   int     // training-iteration budget (training jobs)
	fixed   float64 // fixed service time (no-training jobs)
}

// subSeed derives independent deterministic streams from the root seed
// (the same splitmix64 golden-ratio construction flexnet uses for chain
// seeds). Stream IDs: 1 = trace sampling, 2 = failure schedule,
// 3 = victim selection.
func subSeed(root int64, stream uint64) int64 {
	return int64(uint64(root) + stream*0x9E3779B97F4A7C15)
}

// diurnalAmplitude modulates the diurnal arrival rate: rate(t) swings
// ±80% around the mean over one period.
const diurnalAmplitude = 0.8

// buildArrivals materializes the trace: inline jobs verbatim, or a
// synthetic trace sampled from internal/trace's §2.2 distributions on a
// single rng stream (family choice, then the two distribution draws, per
// job — a fixed consumption order, so the trace is a pure function of
// the seed). The result is sorted by arrival time, stable by index:
// equal-At jobs are admitted in input order.
func buildArrivals(sp Spec) []arrival {
	var out []arrival
	if len(sp.Trace.Inline) > 0 {
		for i, j := range sp.Trace.Inline {
			a := arrival{id: i, at: j.AtS, workers: j.Workers, iters: j.Iters, fixed: j.FixedDurationS}
			if j.Iters > 0 {
				a.family, _ = ParseFamily(j.Family)
			}
			out = append(out, a)
		}
	} else {
		rng := rand.New(rand.NewSource(subSeed(sp.Seed, 1)))
		total := 0.0
		for _, fs := range sp.Trace.Mix {
			total += fs.Weight
		}
		t := 0.0
		for i := 0; i < sp.Trace.Jobs; i++ {
			gap := rng.ExpFloat64() * sp.Trace.MeanInterarrivalS
			if sp.Trace.Pattern == "diurnal" {
				// Thin the gap by the instantaneous rate: peaks pack
				// arrivals, troughs spread them.
				phase := 2 * math.Pi * t / sp.Trace.DiurnalPeriodS
				gap /= 1 + diurnalAmplitude*math.Sin(phase)
			}
			t += gap
			f := pickFamily(sp.Trace.Mix, total, rng)
			j := trace.Sample(f, rng)
			w := j.Workers / sp.Trace.WorkerDivisor
			if w < sp.Trace.MinWorkers {
				w = sp.Trace.MinWorkers
			}
			if w > sp.Trace.MaxWorkers {
				w = sp.Trace.MaxWorkers
			}
			iters := int(math.Round(j.DurationHours * sp.Trace.ItersPerHour))
			if iters < 1 {
				iters = 1
			}
			out = append(out, arrival{id: i, at: t, family: f, workers: w, iters: iters})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// pickFamily draws a family from the ordered mix (slice order — never a
// map — so the cumulative walk is deterministic).
func pickFamily(mix []FamilyShare, total float64, rng *rand.Rand) trace.Family {
	x := rng.Float64() * total
	acc := 0.0
	for _, fs := range mix {
		acc += fs.Weight
		if x < acc {
			f, _ := ParseFamily(fs.Family)
			return f
		}
	}
	f, _ := ParseFamily(mix[len(mix)-1].Family)
	return f
}

// lastArrival returns the latest arrival time (the default failure
// horizon).
func lastArrival(arrs []arrival) float64 {
	if len(arrs) == 0 {
		return 0
	}
	return arrs[len(arrs)-1].at
}
