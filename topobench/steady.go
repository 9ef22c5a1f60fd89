package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steady runs hit, replan and compare --runs times each, each run a fresh
// process with its own seed, and prints every end-to-end metric's median,
// quartiles, range and spread (interquartile distance over the median),
// plus each workload's failed share. The bounds in BENCHMARK.json are
// derived from its output.
func steady(root, bin string, args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	seconds := fs.Int("seconds", 20, "measured time per run")
	seed := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range []string{"hit", "replan", "compare"} {
		var results []result
		for i := 0; i < *runs; i++ {
			s := *seed + int64(i)
			cmd := exec.Command(exe, "-root", root, "-bin", bin, "--workload", w,
				"--seed", strconv.FormatInt(s, 10), "--seconds", strconv.Itoa(*seconds), "--trace", "0")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %v\n%s", w, s, err, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			last := lines[len(lines)-1]
			var r result
			if err := json.Unmarshal([]byte(last), &r); err != nil {
				return fmt.Errorf("%s seed %d: %v", w, s, err)
			}
			if !r.Correct {
				fmt.Fprintf(os.Stderr, "%s seed %d: incorrect output\n%s", w, s, stderr.String())
			}
			results = append(results, r)
		}
		report(w, results)
	}
	return nil
}

// report prints one workload's spread table.
func report(workload string, results []result) {
	names := map[string]string{}
	for _, r := range results {
		for n, m := range r.Metrics {
			names[n] = m.Unit
		}
	}
	keys := make([]string, 0, len(names))
	for n := range names {
		keys = append(keys, n)
	}
	sort.Strings(keys)
	fmt.Printf("%s: %d runs\n", workload, len(results))
	fmt.Printf("  %-18s %12s %12s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "min", "max", "spread")
	for _, n := range keys {
		var vs []float64
		for _, r := range results {
			vs = append(vs, r.Metrics[n].Value)
		}
		sort.Float64s(vs)
		q := quartiles(vs)
		fmt.Printf("  %-18s %12.4f %12.4f %12.4f %12.4f %12.4f %8.4f  %s\n",
			n, q[1], q[0], q[2], vs[0], vs[len(vs)-1], (q[2]-q[0])/q[1], names[n])
	}
	// The failed share must be exactly equal in every run.
	same := true
	for _, r := range results {
		same = same && r.Failed*results[0].Attempted == results[0].Failed*r.Attempted
	}
	fmt.Printf("  failed share: %d/%d, equal in every run: %v\n", results[0].Failed, results[0].Attempted, same)
}

// quartiles returns the three quartile cut points of sorted xs with the
// method of Python's statistics.quantiles(xs, n=4) (the default,
// "exclusive"); with fewer than two values it returns the value thrice.
func quartiles(xs []float64) [3]float64 {
	ld := len(xs)
	if ld < 2 {
		return [3]float64{xs[0], xs[0], xs[0]}
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		q[i-1] = (xs[j-1]*(n-delta) + xs[j]*delta) / n
	}
	return q
}
