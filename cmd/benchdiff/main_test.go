package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: topoopt/internal/netsim
BenchmarkNetsimSmall-8   	    1000	   1200 ns/op	      16 B/op	       2 allocs/op
BenchmarkNetsimLarge-8   	     100	  50000 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	topoopt/internal/netsim	2.345s
`

func TestParseBench(t *testing.T) {
	results, err := parseBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("parsed %d results, want 2", len(results))
	}
	got := results[0]
	if got.Name != "BenchmarkNetsimSmall" {
		t.Errorf("name %q should have the -8 CPU suffix stripped", got.Name)
	}
	if got.NsPerOp != 1200 || got.BytesPerOp != 16 || got.AllocsPerOp != 2 {
		t.Errorf("unexpected measurements: %+v", got)
	}
}

// TestParseBenchFoldsMedians: the rows of a -count=5 run fold into one
// row per benchmark holding each metric's median, so a single slow run
// moves nothing.
func TestParseBenchFoldsMedians(t *testing.T) {
	out := `BenchmarkA-2   10   900 ns/op   64 B/op   3 allocs/op
BenchmarkB-2   10   50 ns/op   0 B/op   0 allocs/op
BenchmarkA-2   10   5000 ns/op   64 B/op   3 allocs/op
BenchmarkA-2   10   1000 ns/op   80 B/op   4 allocs/op
BenchmarkA-2   10   1100 ns/op   64 B/op   3 allocs/op
BenchmarkA-2   10   950 ns/op   96 B/op   5 allocs/op
BenchmarkB-2   10   70 ns/op   0 B/op   0 allocs/op
`
	results, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{
		{Name: "BenchmarkA", NsPerOp: 1000, BytesPerOp: 64, AllocsPerOp: 3},
		{Name: "BenchmarkB", NsPerOp: 60, BytesPerOp: 0, AllocsPerOp: 0},
	}
	if len(results) != len(want) {
		t.Fatalf("parsed %+v, want %+v", results, want)
	}
	for i := range want {
		if results[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, results[i], want[i])
		}
	}
}

func writeBenchFile(t *testing.T, f File) string {
	t.Helper()
	data, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareDetectsRegressionAndTolerance(t *testing.T) {
	path := writeBenchFile(t, File{Current: []Result{
		{Name: "BenchmarkNetsimSmall", NsPerOp: 1000, AllocsPerOp: 2},
		{Name: "BenchmarkNetsimLarge", NsPerOp: 50000},
	}})
	results, err := parseBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	// 1200 vs 1000 ns/op = 1.20x: inside a 1.30 tolerance, outside 1.10.
	if fails := compare(path, results, 1.30, 1.10); fails != 0 {
		t.Errorf("within tolerance, got %d failures", fails)
	}
	if fails := compare(path, results, 1.10, 1.10); fails == 0 {
		t.Error("a 1.20x ns/op regression should fail a 1.10 tolerance")
	}
}

func TestCompareFlagsMissingBenchmarks(t *testing.T) {
	path := writeBenchFile(t, File{Current: []Result{
		{Name: "BenchmarkNetsimSmall", NsPerOp: 1000},
		{Name: "BenchmarkVanished", NsPerOp: 1},
	}})
	results, err := parseBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if fails := compare(path, results, 10, 10); fails == 0 {
		t.Error("a recorded benchmark missing from the run must fail the check")
	}
}

func TestHistoryAppendAndImport(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "BENCH_HISTORY.json")

	// First append creates the ledger from stdin-parsed results.
	var out strings.Builder
	err := runHistory(ledger, "netsim", "pr7", "2026-08-08", "", false,
		strings.NewReader(sampleBenchOutput), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "appended netsim/2026-08-08 (2 benchmarks)") {
		t.Errorf("append output: %q", out.String())
	}

	// Second entry imports a committed BENCH_*.json instead of stdin.
	seed := writeBenchFile(t, File{Current: []Result{
		{Name: "BenchmarkNetsimSmall", NsPerOp: 1000, AllocsPerOp: 2}}})
	if err := runHistory(ledger, "netsim", "seed", "2026-07-01", seed, false, nil, io.Discard); err != nil {
		t.Fatal(err)
	}

	h, err := readHistory(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Entries) != 2 || h.Note == "" {
		t.Fatalf("ledger: %+v", h)
	}
	if h.Entries[0].Label != "pr7" || h.Entries[1].Label != "seed" {
		t.Errorf("entry labels/order wrong: %+v", h.Entries)
	}
	if len(h.Entries[1].Results) != 1 || h.Entries[1].Results[0].NsPerOp != 1000 {
		t.Errorf("imported results wrong: %+v", h.Entries[1].Results)
	}
}

func TestHistoryAppendValidation(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "BENCH_HISTORY.json")
	if err := runHistory(ledger, "", "", "", "", false,
		strings.NewReader(sampleBenchOutput), io.Discard); err == nil {
		t.Error("append without -suite must fail")
	}
	if err := runHistory(ledger, "netsim", "", "", "", false,
		strings.NewReader("no benchmarks here\n"), io.Discard); err == nil {
		t.Error("append with no parsed results must fail")
	}
	if _, err := os.Stat(ledger); !os.IsNotExist(err) {
		t.Error("failed appends must not create the ledger")
	}
}

func TestHistoryTrend(t *testing.T) {
	ledger := filepath.Join(t.TempDir(), "BENCH_HISTORY.json")
	entries := []HistoryEntry{
		{Date: "2026-07-01", Suite: "netsim", Results: []Result{
			{Name: "BenchmarkNetsimSmall", NsPerOp: 1000, AllocsPerOp: 2},
			{Name: "BenchmarkNetsimLarge", NsPerOp: 50000}}},
		{Date: "2026-08-08", Suite: "netsim", Results: []Result{
			{Name: "BenchmarkNetsimSmall", NsPerOp: 1200, AllocsPerOp: 3},
			{Name: "BenchmarkNetsimLarge", NsPerOp: 48000}}},
		{Date: "2026-08-08", Suite: "serve", Results: []Result{
			{Name: "BenchmarkServeCacheHit", NsPerOp: 60000}}},
	}
	if err := writeHistory(ledger, History{Entries: entries}); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := runHistory(ledger, "", "", "", "", true, nil, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"BenchmarkNetsimSmall", "2 runs", "1000 -> 2026-08-08 1200 ns/op (1.20x) SLOWER",
		"allocs/op 2 -> 3",
		"(0.96x) flat", // NetsimLarge: inside the ±5% flat band
		"1 runs",       // the serve suite's single entry still reports
		"BenchmarkServeCacheHit",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("trend output missing %q:\n%s", want, got)
		}
	}

	// Suite filter narrows the report; an unknown suite is an error.
	out.Reset()
	if err := runHistory(ledger, "serve", "", "", "", true, nil, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "netsim") {
		t.Errorf("suite filter leaked other suites:\n%s", out.String())
	}
	if err := runHistory(ledger, "no-such-suite", "", "", "", true, nil, io.Discard); err == nil {
		t.Error("trend for an unknown suite must fail")
	}
	if err := runHistory(filepath.Join(t.TempDir(), "missing.json"), "", "", "", "", true, nil, io.Discard); err == nil {
		t.Error("trend over an empty ledger must fail")
	}
}

func TestRecordPreservesSeedBaseline(t *testing.T) {
	path := writeBenchFile(t, File{
		Note:         "n",
		SeedBaseline: []Result{{Name: "BenchmarkNetsimSmall", NsPerOp: 99999}},
		Current:      []Result{{Name: "BenchmarkNetsimSmall", NsPerOp: 2000}},
	})
	results, err := parseBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if err := record(path, results); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.SeedBaseline) != 1 || f.SeedBaseline[0].NsPerOp != 99999 {
		t.Error("record must never touch the frozen seed baseline")
	}
	if len(f.Current) != 2 || f.Current[0].NsPerOp != 1200 {
		t.Errorf("current section not rewritten: %+v", f.Current)
	}
}
