// Package topo builds the network architectures compared in §5.1 of the
// paper: Ideal Switch, cost-equivalent full-bisection Fat-tree, 2:1
// oversubscribed Fat-tree, Expander (Jellyfish-style random regular
// graph), SiP-ML-style ring fabrics and generic direct-connect topologies.
// TopoOpt's own topology is produced by the core package's TopologyFinder;
// this package supplies everything it is compared against.
package topo

import (
	"fmt"
	"math/rand"

	"topoopt/internal/graph"
)

// Network wraps a graph with the convention that nodes [0, Hosts) are
// servers and nodes [Hosts, N) are switches. ForwardingHosts reports
// whether servers may relay traffic for other servers (host-based
// forwarding, §3); switch nodes always forward.
type Network struct {
	G               *graph.Graph
	Hosts           int
	ForwardingHosts bool
	Name            string
}

// IdealSwitch builds the Ideal Switch baseline: every server connects to
// one non-blocking switch with a duplex link of perServerBW bits/s (§5.1:
// d×B per server). Node n is the switch.
func IdealSwitch(n int, perServerBW float64) *Network {
	g := graph.New(n + 1)
	sw := n
	for v := 0; v < n; v++ {
		g.AddDuplex(v, sw, perServerBW)
	}
	return &Network{G: g, Hosts: n, Name: "IdealSwitch"}
}

// FatTree builds the cost-equivalent full-bisection Fat-tree baseline. The
// paper models it as a non-blocking fabric at reduced per-server bandwidth
// d×B' (§5.1), so structurally it is a single logical switch at
// perServerBW — contention appears only at server uplinks, exactly as in a
// full-bisection fabric.
func FatTree(n int, perServerBW float64) *Network {
	nw := IdealSwitch(n, perServerBW)
	nw.Name = "Fat-tree"
	return nw
}

// OversubFatTree builds a 2:1 oversubscribed two-tier Fat-tree: racks of
// serversPerRack servers connect to a ToR at perServerBW each; each ToR's
// uplink to the core carries only half the rack's aggregate bandwidth
// (§5.1, Oversub. Fat-tree). Node layout: servers, then ToRs, then one
// core node.
func OversubFatTree(n, serversPerRack int, perServerBW float64) *Network {
	if serversPerRack < 1 {
		panic("topo: serversPerRack must be >= 1")
	}
	racks := (n + serversPerRack - 1) / serversPerRack
	g := graph.New(n + racks + 1)
	core := n + racks
	for v := 0; v < n; v++ {
		tor := n + v/serversPerRack
		g.AddDuplex(v, tor, perServerBW)
	}
	for r := 0; r < racks; r++ {
		inRack := serversPerRack
		if r == racks-1 {
			inRack = n - r*serversPerRack
		}
		uplink := perServerBW * float64(inRack) / 2
		g.AddDuplex(n+r, core, uplink)
	}
	return &Network{G: g, Hosts: n, Name: "OversubFatTree"}
}

// Expander builds a Jellyfish-style random d-regular direct-connect fabric
// over n servers with per-link bandwidth bw: d/2 superimposed random
// Hamiltonian cycles (plus a random perfect matching when d is odd and n
// even). Deterministic for a given seed.
func Expander(n, d int, bw float64, seed int64) (*Network, error) {
	if d < 2 {
		return nil, fmt.Errorf("topo: expander degree %d < 2", d)
	}
	if d%2 == 1 && n%2 == 1 {
		return nil, fmt.Errorf("topo: odd degree %d with odd n %d impossible", d, n)
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for c := 0; c < d/2; c++ {
		p := rng.Perm(n)
		for i := 0; i < n; i++ {
			g.AddDuplex(p[i], p[(i+1)%n], bw)
		}
	}
	if d%2 == 1 {
		p := rng.Perm(n)
		for i := 0; i+1 < n; i += 2 {
			g.AddDuplex(p[i], p[i+1], bw)
		}
	}
	return &Network{G: g, Hosts: n, ForwardingHosts: true, Name: "Expander"}, nil
}

// PhysicalRing builds the SiP-ML SiP-Ring physical substrate: servers in a
// ring where each server dedicates its d interfaces as wavelengths that
// can reach neighbors up to d hops away around the ring. We materialize
// the default allocation: one duplex link to each of the d/2 nearest
// neighbors clockwise and counter-clockwise (degree d total).
func PhysicalRing(n, d int, bw float64) *Network {
	g := graph.New(n)
	// Each offset ring h contributes one duplex link per node pair
	// (v, v+h); inserting for every v covers wrap-around pairs exactly
	// once.
	for h := 1; h <= d/2; h++ {
		if 2*h == n {
			// Offset n/2 pairs each node with its antipode; inserting for
			// every v would duplicate each duplex link.
			for v := 0; v < n/2; v++ {
				g.AddDuplex(v, v+h, bw)
			}
			continue
		}
		for v := 0; v < n; v++ {
			g.AddDuplex(v, (v+h)%n, bw)
		}
	}
	return &Network{G: g, Hosts: n, ForwardingHosts: true, Name: "SiP-Ring"}
}

// TorusDims factors n servers into the most balanced torus the degree
// budget d affords: three near-equal factors ≥ 2 when d ≥ 6 and such a
// decomposition exists, else two factors when d ≥ 4 and n is composite,
// else a 1D ring (d ≥ 2). Deterministic in (n, d). Dimensions sort
// ascending, so the same (n, d) always yields the same layout.
func TorusDims(n, d int) ([]int, error) {
	if n < 2 {
		return nil, fmt.Errorf("topo: torus needs >= 2 servers, got %d", n)
	}
	if d < 2 {
		return nil, fmt.Errorf("topo: torus needs degree >= 2, got %d", d)
	}
	if d >= 6 {
		// Most balanced 3-factor split: largest a ≤ ∛n dividing n, then
		// largest b ≤ √(n/a) dividing n/a.
		for a := cbrtFloor(n); a >= 2; a-- {
			if n%a != 0 {
				continue
			}
			rest := n / a
			for b := sqrtFloor(rest); b >= a; b-- {
				if rest%b != 0 || rest/b < b {
					continue
				}
				return []int{a, b, rest / b}, nil
			}
		}
	}
	if d >= 4 {
		for a := sqrtFloor(n); a >= 2; a-- {
			if n%a == 0 {
				return []int{a, n / a}, nil
			}
		}
	}
	// Prime n or degree budget 2–3: a ring is the 1D torus.
	return []int{n}, nil
}

func sqrtFloor(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}

func cbrtFloor(n int) int {
	r := 0
	for (r+1)*(r+1)*(r+1) <= n {
		r++
	}
	return r
}

// TorusDegree returns the interfaces per server a torus of the given
// dimensions consumes: two per wrap-around dimension, one for a
// dimension of size two (where +1 and -1 reach the same neighbor).
func TorusDegree(dims []int) int {
	deg := 0
	for _, s := range dims {
		switch {
		case s >= 3:
			deg += 2
		case s == 2:
			deg++
		}
	}
	return deg
}

// Torus builds a multi-dimensional wrap-around grid (2D/3D torus; a
// single dimension degenerates to a ring) over the product of dims
// servers, one duplex link of bw to each ±1 neighbor per dimension.
// Node indices are row-major with the last dimension fastest — the same
// convention route.Torus uses for dimension-ordered routing.
func Torus(dims []int, bw float64) *Network {
	n := 1
	for _, s := range dims {
		if s < 1 {
			panic("topo: torus dimension < 1")
		}
		n *= s
	}
	g := graph.New(n)
	stride := make([]int, len(dims))
	st := 1
	for i := len(dims) - 1; i >= 0; i-- {
		stride[i] = st
		st *= dims[i]
	}
	for i, s := range dims {
		if s < 2 {
			continue
		}
		for v := 0; v < n; v++ {
			c := (v / stride[i]) % s
			if s == 2 && c == 1 {
				continue // the +1 and -1 neighbors coincide; link added at c=0
			}
			nb := v + stride[i]
			if c == s-1 {
				nb = v - (s-1)*stride[i] // wrap
			}
			g.AddDuplex(v, nb, bw)
		}
	}
	return &Network{G: g, Hosts: n, ForwardingHosts: true, Name: "Torus"}
}

// DirectConnect builds a direct-connect topology over n servers from
// explicit duplex pairs, each with bandwidth bw. This is how TopologyFinder
// materializes its output.
func DirectConnect(n int, pairs [][2]int, bw float64) *Network {
	g := graph.New(n)
	for _, p := range pairs {
		g.AddDuplex(p[0], p[1], bw)
	}
	return &Network{G: g, Hosts: n, ForwardingHosts: true, Name: "DirectConnect"}
}
