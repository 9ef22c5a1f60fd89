// Command benchdiff records and gates the netsim microbenchmark results
// that anchor the repository's performance trajectory (see DESIGN.md,
// "Simulator performance").
//
// Record mode (the `make bench` target):
//
//	go test ./internal/netsim -bench BenchmarkNetsim -benchmem | benchdiff -out BENCH_netsim.json
//
// parses `go test -bench` output from stdin and rewrites the "current"
// section of the JSON file, preserving the committed "seed_baseline"
// section (the pre-refactor allocator's numbers).
//
// Check mode (the `make benchcheck` target):
//
//	go test ./internal/netsim -bench BenchmarkNetsim -benchmem | benchdiff -check BENCH_netsim.json
//
// compares stdin against the file's "current" section and exits nonzero
// when ns/op or allocs/op regress beyond the tolerances, so future PRs can
// gate on simulator regressions.
//
// History mode (the `make bench-history` target) keeps a dated, append-only
// ledger of runs across PRs in BENCH_HISTORY.json, so the performance
// trajectory is a first-class artifact rather than something reconstructed
// from git archaeology:
//
//	go test ./internal/serve -bench BenchmarkServe -benchmem | benchdiff -history BENCH_HISTORY.json -suite serve
//	benchdiff -history BENCH_HISTORY.json -suite serve -import BENCH_serve.json -label pr6
//	benchdiff -history BENCH_HISTORY.json -trend
//
// The first form appends a dated entry parsed from stdin; -import instead
// copies the "current" section of an existing BENCH_*.json (seeding the
// ledger from committed baselines, no stdin); -trend reads nothing and
// reports each benchmark's first→latest trajectory across entries,
// optionally filtered by -suite.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// File is the BENCH_*.json layout: the frozen pre-refactor baseline plus
// the latest recorded run.
type File struct {
	Note         string   `json:"note,omitempty"`
	SeedBaseline []Result `json:"seed_baseline,omitempty"`
	Current      []Result `json:"current"`
}

// HistoryEntry is one dated run of one suite in the trajectory ledger.
type HistoryEntry struct {
	Date    string   `json:"date"`            // YYYY-MM-DD
	Suite   string   `json:"suite"`           // netsim, serve, flexnet, fleet, ...
	Label   string   `json:"label,omitempty"` // free-form provenance, e.g. "pr6-baseline"
	Results []Result `json:"results"`
}

// History is the BENCH_HISTORY.json layout: an append-only ledger of
// benchmark runs, ordered as appended.
type History struct {
	Note    string         `json:"note,omitempty"`
	Entries []HistoryEntry `json:"entries"`
}

func main() {
	out := flag.String("out", "", "record mode: write/update this BENCH_*.json")
	check := flag.String("check", "", "check mode: compare stdin against this BENCH_*.json")
	maxNs := flag.Float64("max-ns-regress", 1.30, "check mode: allowed ns/op growth factor")
	maxAllocs := flag.Float64("max-alloc-regress", 1.10, "check mode: allowed allocs/op growth factor")
	warnOnly := flag.Bool("warn-only", false, "check mode: report regressions but exit 0 (for noisy CI runners)")
	history := flag.String("history", "", "history mode: append to / report from this BENCH_HISTORY.json")
	suite := flag.String("suite", "", "history mode: suite name for the appended entry (or -trend filter)")
	label := flag.String("label", "", "history mode: free-form label for the appended entry")
	date := flag.String("date", "", "history mode: entry date YYYY-MM-DD (default today)")
	importFrom := flag.String("import", "", "history mode: copy the \"current\" section of this BENCH_*.json instead of reading stdin")
	trend := flag.Bool("trend", false, "history mode: report first→latest trajectory per benchmark, no stdin")
	flag.Parse()

	modes := 0
	for _, m := range []string{*out, *check, *history} {
		if m != "" {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "benchdiff: exactly one of -out, -check or -history is required")
		os.Exit(2)
	}

	if *history != "" {
		if err := runHistory(*history, *suite, *label, *date, *importFrom, *trend, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		return
	}

	results, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark lines on stdin")
		os.Exit(1)
	}

	if *out != "" {
		if err := record(*out, results); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(1)
		}
		fmt.Printf("benchdiff: recorded %d benchmarks to %s\n", len(results), *out)
		return
	}
	if fails := compare(*check, results, *maxNs, *maxAllocs); fails > 0 {
		if *warnOnly {
			fmt.Printf("benchdiff: %d regression(s) — warn-only mode, not failing\n", fails)
			return
		}
		os.Exit(1)
	}
}

// runHistory dispatches the -history sub-modes: -trend reporting, -import
// seeding, or appending a run parsed from stdin.
func runHistory(path, suite, label, date, importFrom string, trend bool, stdin io.Reader, stdout io.Writer) error {
	if trend {
		h, err := readHistory(path)
		if err != nil {
			return err
		}
		return trendReport(stdout, h, suite)
	}
	if suite == "" {
		return fmt.Errorf("-history append requires -suite")
	}
	if date == "" {
		date = time.Now().Format("2006-01-02")
	}
	var results []Result
	if importFrom != "" {
		data, err := os.ReadFile(importFrom)
		if err != nil {
			return err
		}
		var f File
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", importFrom, err)
		}
		results = f.Current
	} else {
		var err error
		if results, err = parseBench(stdin); err != nil {
			return err
		}
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results to append")
	}
	h, err := readHistory(path)
	if err != nil {
		return err
	}
	if h.Note == "" {
		h.Note = "Append-only benchmark trajectory ledger; one dated entry per suite per run. Maintained by `benchdiff -history` (see `make bench-history`)."
	}
	h.Entries = append(h.Entries, HistoryEntry{Date: date, Suite: suite, Label: label, Results: results})
	if err := writeHistory(path, h); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "benchdiff: appended %s/%s (%d benchmarks) to %s — %d entries total\n",
		suite, date, len(results), path, len(h.Entries))
	return nil
}

// readHistory loads the ledger, returning an empty one when the file does
// not exist yet (first append creates it).
func readHistory(path string) (History, error) {
	var h History
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return h, nil
	}
	if err != nil {
		return h, err
	}
	if err := json.Unmarshal(data, &h); err != nil {
		return h, fmt.Errorf("existing %s is not valid JSON: %w", path, err)
	}
	return h, nil
}

func writeHistory(path string, h History) error {
	data, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// trendReport prints, per suite and benchmark, the earliest and latest
// recorded ns/op across the ledger and the growth factor between them, so
// a slow drift that never trips a single-PR benchcheck tolerance is still
// visible. Entries are ledger-ordered (append order), which is also
// chronological for a ledger only ever written by -history.
func trendReport(w io.Writer, h History, suiteFilter string) error {
	if len(h.Entries) == 0 {
		return fmt.Errorf("history is empty — nothing to trend")
	}
	type series struct {
		suite, name         string
		first, last         Result
		firstDate, lastDate string
		lastRuns            int // entries containing this benchmark
	}
	bySuite := map[string]map[string]*series{}
	matched := false
	for _, e := range h.Entries {
		if suiteFilter != "" && e.Suite != suiteFilter {
			continue
		}
		matched = true
		m := bySuite[e.Suite]
		if m == nil {
			m = map[string]*series{}
			bySuite[e.Suite] = m
		}
		for _, r := range e.Results {
			s := m[r.Name]
			if s == nil {
				s = &series{suite: e.Suite, name: r.Name, first: r, firstDate: e.Date}
				m[r.Name] = s
			}
			s.last, s.lastDate = r, e.Date
			s.lastRuns++
		}
	}
	if !matched {
		return fmt.Errorf("no entries for suite %q", suiteFilter)
	}
	suites := make([]string, 0, len(bySuite))
	for s := range bySuite {
		suites = append(suites, s)
	}
	sort.Strings(suites)
	for _, su := range suites {
		names := make([]string, 0, len(bySuite[su]))
		for n := range bySuite[su] {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			s := bySuite[su][n]
			ratio := s.last.NsPerOp / s.first.NsPerOp
			verdict := "flat"
			switch {
			case ratio > 1.05:
				verdict = "SLOWER"
			case ratio < 0.95:
				verdict = "faster"
			}
			fmt.Fprintf(w, "trend %-8s %-40s %d runs  %s %.0f -> %s %.0f ns/op (%.2fx) %s\n",
				su, s.name, s.lastRuns, s.firstDate, s.first.NsPerOp, s.lastDate, s.last.NsPerOp, ratio, verdict)
			if s.first.AllocsPerOp != s.last.AllocsPerOp {
				fmt.Fprintf(w, "trend %-8s %-40s allocs/op %d -> %d\n",
					su, s.name, s.first.AllocsPerOp, s.last.AllocsPerOp)
			}
		}
	}
	return nil
}

// parseBench extracts Result rows from `go test -bench -benchmem` output,
// e.g. "BenchmarkFoo-8   123   4567 ns/op   89 B/op   10 allocs/op", and
// folds the rows of a -count=N run into one median row per benchmark.
func parseBench(r io.Reader) ([]Result, error) {
	var out []Result
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass through so the run stays visible
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		res := Result{Name: strings.TrimSuffix(fields[0], cpuSuffix(fields[0]))}
		for i := 1; i+1 < len(fields); i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = int64(v)
			case "allocs/op":
				res.AllocsPerOp = int64(v)
			}
		}
		if res.NsPerOp > 0 {
			out = append(out, res)
		}
	}
	return foldMedians(out), sc.Err()
}

// foldMedians folds rows that share a name into one row holding the
// median ns/op, B/op and allocs/op, each taken on its own, so one noisy
// run of several neither records nor fails a gate. Names keep the order
// of their first row.
func foldMedians(rows []Result) []Result {
	var names []string
	byName := make(map[string][]Result)
	for _, r := range rows {
		if _, ok := byName[r.Name]; !ok {
			names = append(names, r.Name)
		}
		byName[r.Name] = append(byName[r.Name], r)
	}
	out := make([]Result, 0, len(names))
	for _, name := range names {
		rs := byName[name]
		out = append(out, Result{
			Name:        name,
			NsPerOp:     median(rs, func(r Result) float64 { return r.NsPerOp }),
			BytesPerOp:  int64(median(rs, func(r Result) float64 { return float64(r.BytesPerOp) })),
			AllocsPerOp: int64(median(rs, func(r Result) float64 { return float64(r.AllocsPerOp) })),
		})
	}
	return out
}

// median returns the median of one field over rs; an even count takes
// the mean of the middle two.
func median(rs []Result, field func(Result) float64) float64 {
	vs := make([]float64, len(rs))
	for i, r := range rs {
		vs[i] = field(r)
	}
	sort.Float64s(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// cpuSuffix returns the "-N" GOMAXPROCS suffix of a benchmark name, if
// present, so recorded names are machine-independent.
func cpuSuffix(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[i:]
		}
	}
	return ""
}

func record(path string, results []Result) error {
	var f File
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("existing %s is not valid JSON: %w", path, err)
		}
	}
	f.Current = results
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func compare(path string, results []Result, maxNs, maxAllocs float64) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 1
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 1
	}
	recorded := make(map[string]Result, len(f.Current))
	for _, r := range f.Current {
		recorded[r.Name] = r
	}
	fails := 0
	// A recorded benchmark that vanished from the run (renamed, deleted,
	// or crashed before reporting) is a failure, not a silent pass.
	ran := make(map[string]bool, len(results))
	for _, r := range results {
		ran[r.Name] = true
	}
	for _, r := range f.Current {
		if !ran[r.Name] {
			fmt.Printf("benchdiff: %-40s MISSING from this run\n", r.Name)
			fails++
		}
	}
	for _, r := range results {
		base, ok := recorded[r.Name]
		if !ok {
			fmt.Printf("benchdiff: %-40s NEW (no recorded value)\n", r.Name)
			continue
		}
		nsRatio := r.NsPerOp / base.NsPerOp
		status := "ok"
		if nsRatio > maxNs {
			status = "REGRESSION"
			fails++
		}
		fmt.Printf("benchdiff: %-40s ns/op %.0f -> %.0f (%.2fx) %s\n",
			r.Name, base.NsPerOp, r.NsPerOp, nsRatio, status)
		if base.AllocsPerOp > 0 {
			aRatio := float64(r.AllocsPerOp) / float64(base.AllocsPerOp)
			if aRatio > maxAllocs {
				fmt.Printf("benchdiff: %-40s allocs/op %d -> %d (%.2fx) REGRESSION\n",
					r.Name, base.AllocsPerOp, r.AllocsPerOp, aRatio)
				fails++
			}
		} else if r.AllocsPerOp > base.AllocsPerOp {
			fmt.Printf("benchdiff: %-40s allocs/op %d -> %d REGRESSION\n",
				r.Name, base.AllocsPerOp, r.AllocsPerOp)
			fails++
		}
	}
	return fails
}
