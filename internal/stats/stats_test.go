package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Error("extremes wrong")
	}
	if Percentile(xs, 50) != 3 {
		t.Errorf("p50 = %v, want 3", Percentile(xs, 50))
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Errorf("p25 = %v, want 2", got)
	}
	// Interpolation.
	if got := Percentile([]float64{0, 10}, 75); got != 7.5 {
		t.Errorf("p75 of {0,10} = %v, want 7.5", got)
	}
	// Clamping.
	if Percentile(xs, -5) != 1 || Percentile(xs, 200) != 5 {
		t.Error("clamping failed")
	}
	if Percentile([]float64{42}, 99) != 42 {
		t.Error("singleton percentile")
	}
}

func TestPercentilePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Percentile(nil, 50)
}

func TestMeanMinMax(t *testing.T) {
	xs := []float64{4, 1, 7, 2}
	if Mean(xs) != 3.5 || Min(xs) != 1 || Max(xs) != 7 {
		t.Errorf("mean %v min %v max %v", Mean(xs), Min(xs), Max(xs))
	}
}

func TestSummaryFormat(t *testing.T) {
	if Summary(nil) != "n=0" {
		t.Error("empty summary")
	}
	s := Summary([]float64{1, 2, 3})
	if len(s) == 0 {
		t.Error("summary empty")
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := raw
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v := Percentile(xs, p)
			if v < prev {
				return false
			}
			prev = v
		}
		return Percentile(xs, 0) == Min(xs) && Percentile(xs, 100) == Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
