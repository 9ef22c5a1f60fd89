// Package trace generates synthetic production training-job traces with
// the distributional properties measured at Meta in §2.2: jobs of 32–700
// workers (Figure 2a), multi-hour to multi-day durations with the top 10%
// beyond 96 hours (Figure 2b), network overhead growing with worker count
// (Figure 3), and per-job traffic heatmaps combining a ring-AllReduce
// diagonal with model-dependent MP rows/columns (Figure 4).
//
// Substitution note (DESIGN.md): we do not have Meta's traces; this
// generator reproduces exactly the properties the paper uses them for.
package trace

import (
	"math"
	"math/rand"

	"topoopt/internal/collective"
	"topoopt/internal/traffic"
)

// Family is a production job family (Figure 2's four categories).
type Family int

const (
	ObjectTracking Family = iota
	Recommendation
	NLP
	ImageRecognition
)

func (f Family) String() string {
	switch f {
	case ObjectTracking:
		return "ObjectTracking"
	case Recommendation:
		return "Recommendation"
	case NLP:
		return "NaturalLanguageProc"
	case ImageRecognition:
		return "ImageRecognition"
	}
	return "Unknown"
}

// Families lists all four.
func Families() []Family {
	return []Family{ObjectTracking, Recommendation, NLP, ImageRecognition}
}

// Job is one synthetic production job.
type Job struct {
	Family        Family
	Workers       int
	DurationHours float64
}

// famParams are log-normal parameters per family, tuned so worker counts
// span 32–700 and durations reproduce Figure 2b's heavy tail. A fixed
// array indexed by Family (not a map): samplers index it directly, and no
// code path can ever iterate it in nondeterministic map order — fleet
// simulations replay traces byte-for-byte from a seed alone.
var famParams = [...]struct {
	wMu, wSigma float64 // log workers
	dMu, dSigma float64 // log duration hours
}{
	ObjectTracking:   {math.Log(48), 0.5, math.Log(8), 1.1},
	Recommendation:   {math.Log(128), 0.7, math.Log(24), 1.2},
	NLP:              {math.Log(96), 0.8, math.Log(30), 1.3},
	ImageRecognition: {math.Log(64), 0.6, math.Log(12), 1.2},
}

// Sample draws one job of family f from rng — the single-draw core of
// Generate, exported so arrival-driven simulators (internal/fleet) can
// interleave draws across families on one deterministic stream. The rng
// consumption is part of the contract (exactly two NormFloat64 draws, in
// worker-then-duration order) and is pinned by a golden test: changing it
// silently reshuffles every downstream fleet trace.
func Sample(f Family, rng *rand.Rand) Job {
	p := famParams[f]
	w := int(math.Exp(rng.NormFloat64()*p.wSigma + p.wMu))
	if w < 8 {
		w = 8
	}
	if w > 700 {
		w = 700
	}
	d := math.Exp(rng.NormFloat64()*p.dSigma + p.dMu)
	if d < 0.01 {
		d = 0.01
	}
	return Job{Family: f, Workers: w, DurationHours: d}
}

// Generate produces count jobs of the given family, deterministic per
// seed.
func Generate(f Family, count int, seed int64) []Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]Job, count)
	for i := range jobs {
		jobs[i] = Sample(f, rng)
	}
	return jobs
}

// Workers extracts worker counts as float64 for CDF plotting.
func Workers(jobs []Job) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = float64(j.Workers)
	}
	return out
}

// Durations extracts durations (hours).
func Durations(jobs []Job) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = j.DurationHours
	}
	return out
}

// ProductionHeatmap synthesizes a Figure 4-style traffic heatmap for a
// job with n servers: a ring-AllReduce diagonal plus MP rows/columns for
// a family-dependent number of model-parallel hosts.
func ProductionHeatmap(f Family, n int, seed int64) traffic.Matrix {
	rng := rand.New(rand.NewSource(seed))
	tm := traffic.NewMatrix(n)
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	collective.Ring(tm, members, 1, int64(4e9))
	mpHosts := 0
	switch f {
	case Recommendation:
		mpHosts = n / 4
	case NLP:
		mpHosts = n / 8
	case ObjectTracking:
		mpHosts = n / 16
	case ImageRecognition:
		mpHosts = 0
	}
	for h := 0; h < mpHosts; h++ {
		host := rng.Intn(n)
		per := int64(16e6 + rng.Int63n(48e6))
		for c := 0; c < n; c++ {
			if c != host {
				tm.Add(host, c, per)
				tm.Add(c, host, per)
			}
		}
	}
	return tm
}

// IsRingDominant reports whether the heatmap's ring diagonal carries the
// largest single entries — the visual signature of Figure 4.
func IsRingDominant(tm traffic.Matrix) bool {
	n := tm.N()
	if n < 2 {
		return false
	}
	var minDiag int64 = math.MaxInt64
	for i := 0; i < n; i++ {
		v := tm[i][(i+1)%n]
		if v < minDiag {
			minDiag = v
		}
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if d == (s+1)%n || s == d {
				continue
			}
			if tm[s][d] > minDiag {
				return false
			}
		}
	}
	return true
}
