package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"

	"topoopt/internal/model"
	"topoopt/internal/parallel"
	"topoopt/internal/traffic"
)

// goldenPath holds one "name digest" line per configuration of
// goldenConfigs: the SHA-256 of dumpResult for TopologyFinder's output.
const goldenPath = "testdata/topofinder_golden.txt"

type goldenConfig struct {
	name string
	cfg  Config
	dem  traffic.Demand
}

// goldenConfigs is the pinned configuration set: the hybrid demands of
// dlrm §5.3, §5.6 and §6 and of ncf at 8–32 servers and degree 2–8, with
// PrimeOnly both ways, plus seeded random demands whose MP pairs are
// dense enough that equal-hop alternatives are common.
func goldenConfigs(t *testing.T) []goldenConfig {
	t.Helper()
	models := []struct {
		name string
		m    *model.Model
	}{
		{"dlrm-5.3", model.DLRMPreset(model.Sec53)},
		{"dlrm-5.6", model.DLRMPreset(model.Sec56)},
		{"dlrm-6", model.DLRMPreset(model.Sec6)},
		{"ncf", model.NCFPreset()},
	}
	var out []goldenConfig
	for _, mc := range models {
		for _, n := range []int{8, 10, 12, 16, 24, 32} {
			dem, err := traffic.FromStrategy(mc.m, parallel.Hybrid(mc.m, n), mc.m.BatchPerGPU)
			if err != nil {
				t.Fatalf("%s n=%d: %v", mc.name, n, err)
			}
			for _, d := range []int{2, 3, 4, 6, 8} {
				for _, prime := range []bool{false, true} {
					out = append(out, goldenConfig{
						name: fmt.Sprintf("%s/n%d/d%d/prime=%t", mc.name, n, d, prime),
						cfg:  Config{N: n, D: d, LinkBW: 100e9, PrimeOnly: prime},
						dem:  dem,
					})
				}
			}
		}
	}
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(25)
		d := 2 + rng.Intn(7)
		prime := rng.Intn(2) == 0
		out = append(out, goldenConfig{
			name: fmt.Sprintf("random/seed%d/n%d/d%d/prime=%t", seed, n, d, prime),
			cfg:  Config{N: n, D: d, LinkBW: 100e9, PrimeOnly: prime},
			dem:  goldenRandomDemand(rng, n),
		})
	}
	return out
}

// goldenRandomDemand draws a full or half AllReduce group (or none) and
// MP traffic on each ordered pair with probability 0.3.
func goldenRandomDemand(rng *rand.Rand, n int) traffic.Demand {
	dem := traffic.Demand{N: n, MP: traffic.NewMatrix(n)}
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	switch rng.Intn(3) {
	case 0:
		dem.Groups = []traffic.Group{{Members: all, Bytes: 1 + rng.Int63n(1e9)}}
	case 1:
		dem.Groups = []traffic.Group{{Members: all[:n/2], Bytes: 1 + rng.Int63n(1e9)}}
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d && rng.Float64() < 0.3 {
				dem.MP.Add(s, d, 1+rng.Int63n(1e8))
			}
		}
	}
	return dem
}

// dumpResult writes a canonical text form of res: the degree split, the
// edges in ID order, the rings, and every routing-table entry.
func dumpResult(w io.Writer, res *Result) {
	g := res.Network.G
	fmt.Fprintf(w, "n=%d split=%d/%d\n", g.N(), res.DegreeAllReduce, res.DegreeMP)
	for _, e := range g.Edges() {
		fmt.Fprintf(w, "e %d %d %d %g\n", e.ID, e.From, e.To, e.Cap)
	}
	for _, r := range res.Rings {
		fmt.Fprintf(w, "ring %v %v %d\n", r.Members, r.Ps, r.Bytes)
	}
	for s := 0; s < g.N(); s++ {
		for d := 0; d < g.N(); d++ {
			if s != d {
				fmt.Fprintf(w, "r %d %d %v\n", s, d, res.Routes.Get(s, d))
			}
		}
	}
}

// TestTopologyFinderGolden pins TopologyFinder's topology, rings and
// routing table on every configuration of goldenConfigs. Equal-hop MP
// routes are common, so the test also pins which of them the search
// picks.
func TestTopologyFinderGolden(t *testing.T) {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	cfgs := goldenConfigs(t)
	if len(cfgs) != len(want) {
		t.Errorf("%d configurations, %s has %d", len(cfgs), goldenPath, len(want))
	}
	for _, gc := range cfgs {
		res, err := TopologyFinder(gc.cfg, gc.dem)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		h := sha256.New()
		dumpResult(h, res)
		if got := hex.EncodeToString(h.Sum(nil)); got != want[gc.name] {
			t.Errorf("%s: digest %s, want %q", gc.name, got, want[gc.name])
		}
	}
}
