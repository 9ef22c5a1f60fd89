// Command topobench is the end-to-end benchmark of the topooptd planning
// daemon. It boots real topooptd processes built from this checkout,
// drives them over HTTP from one closed-loop client with at most nproc
// connections, checks every answer and prints one JSON result line:
//
//	topobench -root DIR -bin DIR --workload hit|replan|compare \
//	          --seed N --seconds S --trace 0|1
//	topobench -root DIR -bin DIR steady [--runs 10] [--seconds S] [--seed N]
//
// run.sh builds the binaries and supplies -root and -bin. With --trace 0
// the result carries the end-to-end metrics; with --trace 1 the run
// replays the workload in-process through the library's public functions
// with spans around every layer and reports per-layer metrics instead.
// See README.md for the workloads, the metrics and reference figures.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// env is what every part of a run shares.
type env struct {
	root   string // checkout root
	bin    string // directory holding topooptd
	work   string // scratch directory of this run, removed at exit
	lanes  int    // closed-loop connections
	client *http.Client
	boots  int
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	args := os.Args[1:]
	fs := flag.NewFlagSet("topobench", flag.ContinueOnError)
	root := fs.String("root", "", "checkout root (run.sh sets it)")
	bin := fs.String("bin", "", "directory with the topooptd binary (run.sh sets it)")
	workload := fs.String("workload", "", "hit, replan or compare")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured time per run")
	trace := fs.Int("trace", 0, "1 replays the workload in-process and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *root == "" || *bin == "" {
		fmt.Fprintln(os.Stderr, "topobench: -root and -bin are required (use run.sh)")
		os.Exit(2)
	}
	if fs.NArg() > 0 && fs.Arg(0) == "steady" {
		if err := steady(*root, *bin, fs.Args()[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "topobench steady:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(*root, *bin, *workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topobench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topobench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one benchmark run in a scratch directory of its own.
func run(root, bin, workload string, seed int64, seconds int, traced bool) (*result, error) {
	if seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	work := filepath.Join(root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	lanes := runtime.NumCPU()
	if lanes > 2 {
		lanes = 2
	}
	e := &env{root: root, bin: bin, work: work, lanes: lanes,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
			Timeout:   150 * time.Second,
		}}
	defer e.client.CloseIdleConnections()
	in, err := generate(workload, seed, lanes)
	if err != nil {
		return nil, err
	}
	if traced {
		return runTraced(e, workload, in, time.Duration(seconds)*time.Second)
	}
	return runE2E(e, workload, in, time.Duration(seconds)*time.Second)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
