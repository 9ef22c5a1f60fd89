// Command heatmap prints ASCII traffic heatmaps for a workload under
// different parallelization strategies and AllReduce permutations — the
// interactive version of the paper's Figures 1, 7–9.
//
// Usage:
//
//	heatmap -model dlrm -servers 16 [-strategy hybrid|dp] [-perms 1,3,7]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"topoopt/internal/collective"
	"topoopt/internal/heatmap"
	"topoopt/internal/model"
	"topoopt/internal/parallel"
	"topoopt/internal/perm"
	"topoopt/internal/traffic"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, prints the heatmap to stdout and returns the exit
// status: 0 on success, 2 on a flag error, 1 on any other error, which
// it reports on stderr in one line.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("heatmap", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		modelName = fs.String("model", "dlrm", "workload: dlrm, candle, bert, ncf, resnet50, vgg16")
		servers   = fs.Int("servers", 16, "number of servers")
		strategy  = fs.String("strategy", "hybrid", "parallelization: hybrid or dp")
		permsArg  = fs.String("perms", "", "comma-separated ring permutations, each coprime with every AllReduce group's size (default: single +1 ring)")
		batch     = fs.Int("batch", 0, "per-GPU batch (0 = model default)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "heatmap: "+format+"\n", a...)
		return 1
	}

	m := pick(*modelName)
	if m == nil {
		return fail("unknown model %q", *modelName)
	}
	if *servers < 1 {
		return fail("need at least 1 server, got %d", *servers)
	}
	if *batch <= 0 {
		*batch = m.BatchPerGPU
	}
	var st parallel.Strategy
	switch *strategy {
	case "hybrid":
		st = parallel.Hybrid(m, *servers)
	case "dp":
		st = parallel.DataParallel(m, *servers)
	default:
		return fail("unknown strategy %q", *strategy)
	}
	dem, err := traffic.FromStrategy(m, st, *batch)
	if err != nil {
		return fail("%v", err)
	}
	perms := []int{1}
	if *permsArg != "" {
		perms = nil
		for _, s := range strings.Split(*permsArg, ",") {
			p, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || p < 0 {
				return fail("bad permutation %q", s)
			}
			perms = append(perms, p)
		}
	}
	// A "+p" rule makes one ring over k members only when gcd(p, k) = 1.
	for _, g := range dem.Groups {
		for _, p := range perms {
			if k := len(g.Members); k >= 2 && perm.GCD(p, k) != 1 {
				return fail("permutation %d is not coprime with AllReduce group size %d", p, k)
			}
		}
	}
	tm := dem.MP.Clone()
	for _, g := range dem.Groups {
		collective.MultiRing(tm, g.Members, perms, g.Bytes)
	}
	fmt.Fprintf(stdout, "%s, %d servers, %s parallelism, rings %v\n",
		m.Name, *servers, *strategy, perms)
	fmt.Fprintf(stdout, "AllReduce %s + MP %s per iteration\n",
		heatmap.Human(float64(dem.TotalAllReduceBytes())),
		heatmap.Human(float64(dem.TotalMPBytes())))
	fmt.Fprint(stdout, heatmap.Render(tm))
	return 0
}

func pick(name string) *model.Model {
	switch strings.ToLower(name) {
	case "dlrm":
		return model.DLRMPreset(model.Sec53)
	case "candle":
		return model.CANDLEPreset(model.Sec53)
	case "bert":
		return model.BERTPreset(model.Sec53)
	case "ncf":
		return model.NCFPreset()
	case "resnet50", "resnet":
		return model.ResNetPreset(model.Sec53)
	case "vgg16", "vgg":
		return model.VGGPreset(model.Sec53)
	}
	return nil
}
