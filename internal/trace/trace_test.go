package trace

import (
	"math/rand"
	"testing"

	"topoopt/internal/stats"
)

func TestGenerateDistributionShape(t *testing.T) {
	for _, f := range Families() {
		jobs := Generate(f, 500, 1)
		if len(jobs) != 500 {
			t.Fatalf("%s: %d jobs", f, len(jobs))
		}
		ws := Workers(jobs)
		if stats.Min(ws) < 8 || stats.Max(ws) > 700 {
			t.Errorf("%s: workers out of [8,700]: min %g max %g", f, stats.Min(ws), stats.Max(ws))
		}
		// Figure 2a: bulk of jobs between 32 and 700 workers.
		if stats.Percentile(ws, 50) < 16 {
			t.Errorf("%s: median workers %g implausibly low", f, stats.Percentile(ws, 50))
		}
	}
}

func TestDurationsHeavyTail(t *testing.T) {
	var all []float64
	for _, f := range Families() {
		all = append(all, Durations(Generate(f, 400, 2))...)
	}
	// Figure 2b: most jobs last over an hour; top 10% beyond ~96 hours.
	if med := stats.Percentile(all, 50); med < 1 {
		t.Errorf("median duration %g h, want > 1 h", med)
	}
	if p90 := stats.Percentile(all, 90); p90 < 48 {
		t.Errorf("p90 duration %g h, want heavy tail approaching 96 h", p90)
	}
}

// TestGenerateGolden pins the generator's exact output: fleet runs are
// reproduced byte-for-byte from a seed, so the rng consumption order of
// Sample (two NormFloat64 draws, worker then duration) and the famParams
// constants are part of the public contract. If this test fails, every
// recorded fleet trace in the wild silently reshuffles — change the
// goldens only with a deliberate format break.
func TestGenerateGolden(t *testing.T) {
	golden := map[Family][]Job{
		ObjectTracking: {
			{ObjectTracking, 104, 9.181799755274538},
			{ObjectTracking, 37, 31.432992512737542},
			{ObjectTracking, 51, 30.157875821921568},
		},
		Recommendation: {
			{Recommendation, 379, 27.892592019049072},
			{Recommendation, 90, 106.79080725599272},
			{Recommendation, 140, 102.07370781874987},
		},
		NLP: {
			{NLP, 332, 35.30520115324681},
			{NLP, 64, 151.17179438352414},
			{NLP, 106, 143.9513662670663},
		},
		ImageRecognition: {
			{ImageRecognition, 162, 13.946296009524536},
			{ImageRecognition, 47, 53.39540362799638},
			{ImageRecognition, 69, 51.03685390937493},
		},
	}
	for _, f := range Families() {
		got := Generate(f, 3, 42)
		for i, want := range golden[f] {
			if got[i] != want {
				t.Errorf("%s job %d = %+v, want %+v", f, i, got[i], want)
			}
		}
	}
}

// TestSampleInterleavedGolden pins Sample's behavior on a shared stream:
// arrival-driven simulators interleave families on one rng, so a draw
// must consume exactly the same stream positions regardless of family.
func TestSampleInterleavedGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	want := []Job{
		{ObjectTracking, 42, 21.82041997754359},
		{Recommendation, 244, 11.557737046564256},
		{NLP, 70, 69.50651136676254},
		{ImageRecognition, 310, 48.605540118614144},
	}
	for i, w := range want {
		if got := Sample(Family(i), rng); got != w {
			t.Errorf("interleaved draw %d = %+v, want %+v", i, got, w)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(NLP, 50, 7)
	b := Generate(NLP, 50, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed should reproduce jobs")
		}
	}
}

func TestProductionHeatmapRingSignature(t *testing.T) {
	tm := ProductionHeatmap(Recommendation, 48, 3)
	if !IsRingDominant(tm) {
		t.Error("ring diagonal should dominate the heatmap (Figure 4)")
	}
	// Recommendation jobs have MP rows: some off-diagonal traffic exists.
	off := int64(0)
	for s := 0; s < 48; s++ {
		for d := 0; d < 48; d++ {
			if d != (s+1)%48 && s != d {
				off += tm[s][d]
			}
		}
	}
	if off == 0 {
		t.Error("recommendation heatmap should include MP traffic")
	}
	// Image recognition is pure data parallel: no MP.
	tmImg := ProductionHeatmap(ImageRecognition, 48, 3)
	for s := 0; s < 48; s++ {
		for d := 0; d < 48; d++ {
			if d != (s+1)%48 && tmImg[s][d] != 0 {
				t.Fatal("image recognition should be ring-only")
			}
		}
	}
}

func TestFamilyStrings(t *testing.T) {
	for _, f := range Families() {
		if f.String() == "Unknown" || f.String() == "" {
			t.Errorf("family %d has no name", f)
		}
	}
	if Family(99).String() != "Unknown" {
		t.Error("unknown family should say Unknown")
	}
}
