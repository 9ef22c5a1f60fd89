package planchk

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"topoopt"
)

type job struct {
	preset, section string
	n, degree       int
	bw              float64
}

func plan(t *testing.T, j job) *topoopt.Plan {
	t.Helper()
	m, err := topoopt.ModelSpec{Preset: j.preset, Section: j.section}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	p, err := topoopt.Optimize(m, topoopt.Options{Servers: j.n, Degree: j.degree, LinkBandwidth: j.bw, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// clone deep-copies a plan through its wire format, so a corruption never
// leaks into the next case.
func clone(t *testing.T, p *topoopt.Plan) *topoopt.Plan {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q topoopt.Plan
	if err := json.Unmarshal(b, &q); err != nil {
		t.Fatal(err)
	}
	return &q
}

func TestRealPlansPass(t *testing.T) {
	jobs := []job{
		{"dlrm", "6", 8, 2, 25e9}, {"dlrm", "5.3", 12, 4, 100e9}, {"ncf", "", 16, 4, 100e9},
		{"bert", "", 16, 4, 100e9}, {"resnet50", "", 32, 8, 100e9}, {"vgg16", "", 64, 4, 400e9},
		{"candle", "", 128, 4, 100e9}, {"bert", "", 128, 8, 100e9},
	}
	for _, j := range jobs {
		j := j
		t.Run(fmt.Sprintf("%s-%s-n%d-d%d", j.preset, j.section, j.n, j.degree), func(t *testing.T) {
			if testing.Short() && j.n > 32 {
				t.Skip("large plan")
			}
			if err := Check(plan(t, j), j.n, j.degree, j.bw); err != nil {
				t.Fatalf("real plan fails: %v", err)
			}
		})
	}
}

// TestCorruptionsDetected breaks one property at a time on a plan with
// MP traffic, AllReduce rings and multi-hop routes, and expects the
// matching violation.
func TestCorruptionsDetected(t *testing.T) {
	j := job{"dlrm", "6", 8, 2, 25e9}
	base := plan(t, j)
	if err := Check(base, j.n, j.degree, j.bw); err != nil {
		t.Fatalf("base plan fails: %v", err)
	}
	cases := []struct {
		name, want string
		corrupt    func(p *topoopt.Plan)
	}{
		{"degree", "degree is", func(p *topoopt.Plan) {
			c := p.Circuits[0]
			for i := 0; i < j.degree; i++ {
				p.Circuits = append(p.Circuits, c)
			}
		}},
		{"circuit-range", "not between two distinct servers", func(p *topoopt.Plan) {
			p.Circuits[0].To = j.n
		}},
		{"route-hop", "has no circuit", func(p *topoopt.Plan) {
			// Re-route one pair straight from source to destination, over
			// a circuit the plan does not have.
			for src, dsts := range p.Routes {
				for dst := range dsts {
					if !hasCircuit(p, src, dst) {
						dsts[dst] = []int{src, dst}
						return
					}
				}
			}
			t.Fatal("every pair is directly connected")
		}},
		{"route-endpoint", "does not run from source to destination", func(p *topoopt.Plan) {
			for _, dsts := range p.Routes {
				for dst, path := range dsts {
					dsts[dst] = path[:len(path)-1]
					return
				}
			}
		}},
		{"ring-generator", "not co-prime", func(p *topoopt.Plan) {
			r := &p.Rings[0]
			r.Ps = append(r.Ps, len(r.Members))
		}},
		{"strategy-host", "not a server", func(p *topoopt.Plan) {
			p.Strategy.Layers[0].Group[0] = j.n
		}},
		{"mp-phase", "MP phase", func(p *topoopt.Plan) {
			p.PredictedIteration.MPSeconds /= 10
		}},
		{"allreduce-phase", "AllReduce phase", func(p *topoopt.Plan) {
			p.PredictedIteration.AllReduceSeconds /= 10
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := clone(t, base)
			c.corrupt(p)
			err := Check(p, j.n, j.degree, j.bw)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("corruption %s: got %v, want an error containing %q", c.name, err, c.want)
			}
		})
	}
}

func hasCircuit(p *topoopt.Plan, a, b int) bool {
	for _, c := range p.Circuits {
		if c.From == a && c.To == b {
			return true
		}
	}
	return false
}
