package main

import "testing"

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("got %v", q)
	}
	// statistics.quantiles([1,2,4,8,16], n=4) == [1.5, 4.0, 12.0]
	if q := quartiles([]float64{1, 2, 4, 8, 16}); q != [3]float64{1.5, 4, 12} {
		t.Fatalf("got %v", q)
	}
}
