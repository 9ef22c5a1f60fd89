// Package cost implements the §5.2 / Appendix G interconnect cost model:
// per-component prices from Table 2, per-architecture bills of materials,
// and the cost-equivalent Fat-tree bandwidth solver that Figure 11's
// "similar-cost Fat-tree" baseline requires.
package cost

import (
	"sort"
)

// Tier is a row of Table 2: component prices at one link bandwidth.
type Tier struct {
	GbpsRate       float64
	Transceiver    float64
	NICPort        float64 // per-port share of the NIC
	ElectricalPort float64 // per-port share of an electrical switch
	PatchPanelPort float64
	OCSPort        float64
	OneByTwoSwitch float64
}

// Table2 reproduces the paper's component cost table. 200 Gbps uses
// doubled 100 Gbps optics, as the paper notes.
var Table2 = []Tier{
	{10, 20, 185, 94, 100, 520, 25},
	{25, 39, 185, 144, 100, 520, 25},
	{40, 39, 354, 144, 100, 520, 25},
	{100, 99, 678, 187, 100, 520, 25},
	{200, 198, 815, 374, 100, 520, 25},
}

// FiberCostPerLink is the expected fiber cost: $0.30/m over a uniform
// 0–1000 m length distribution → $150 expected (Appendix G).
const FiberCostPerLink = 150.0

// tierFor interpolates component prices for an arbitrary bandwidth in
// bits/s. Below the lowest tier prices are held flat; between tiers
// prices interpolate linearly; above the top tier they scale linearly
// with bandwidth (ganged ports).
func tierFor(bw float64) Tier {
	gbps := bw / 1e9
	ts := Table2
	if gbps <= ts[0].GbpsRate {
		return ts[0]
	}
	last := ts[len(ts)-1]
	if gbps >= last.GbpsRate {
		scale := gbps / last.GbpsRate
		return Tier{
			GbpsRate:       gbps,
			Transceiver:    last.Transceiver * scale,
			NICPort:        last.NICPort * scale,
			ElectricalPort: last.ElectricalPort * scale,
			PatchPanelPort: last.PatchPanelPort,
			OCSPort:        last.OCSPort,
			OneByTwoSwitch: last.OneByTwoSwitch,
		}
	}
	i := sort.Search(len(ts), func(i int) bool { return ts[i].GbpsRate >= gbps })
	lo, hi := ts[i-1], ts[i]
	f := (gbps - lo.GbpsRate) / (hi.GbpsRate - lo.GbpsRate)
	lerp := func(a, b float64) float64 { return a + f*(b-a) }
	return Tier{
		GbpsRate:       gbps,
		Transceiver:    lerp(lo.Transceiver, hi.Transceiver),
		NICPort:        lerp(lo.NICPort, hi.NICPort),
		ElectricalPort: lerp(lo.ElectricalPort, hi.ElectricalPort),
		PatchPanelPort: lo.PatchPanelPort,
		OCSPort:        lo.OCSPort,
		OneByTwoSwitch: lo.OneByTwoSwitch,
	}
}

// fatTreeK returns the smallest even k whose 3-tier fat-tree (k³/4
// servers) accommodates n servers.
func fatTreeK(n int) int {
	for k := 2; ; k += 2 {
		if k*k*k/4 >= n {
			return k
		}
	}
}

// TopoOptPatchPanel is the cost of a TopoOpt fabric on patch panels with
// the look-ahead design: per server-interface one NIC port, one
// transceiver, one 1×2 switch, two patch-panel ports (active +
// look-ahead) and one fiber (Appendix G).
func TopoOptPatchPanel(n, d int, linkBW float64) float64 {
	t := tierFor(linkBW)
	perIface := t.NICPort + t.Transceiver + t.OneByTwoSwitch + 2*t.PatchPanelPort + FiberCostPerLink
	return float64(n*d) * perIface
}

// TopoOptOCS is the cost of a TopoOpt (or OCS-reconfig) fabric on optical
// circuit switches: per interface one NIC port, transceiver, OCS port and
// fiber.
func TopoOptOCS(n, d int, linkBW float64) float64 {
	t := tierFor(linkBW)
	perIface := t.NICPort + t.Transceiver + t.OCSPort + FiberCostPerLink
	return float64(n*d) * perIface
}

// fatTreeCost prices a full-bisection 3-tier fat-tree offering nPorts
// server-facing ports at portBW each: the smallest even k with k³/4 ≥
// nPorts, hence k³/4 server links plus k³ fabric links (5k³/4 switch
// ports total), one transceiver per switch port and per NIC port, one
// fiber per link. fabricFraction scales the fabric tier for
// oversubscription (1 = full bisection, 0.5 = 2:1 oversubscribed).
func fatTreeCost(nPorts int, portBW, fabricFraction float64) float64 {
	t := tierFor(portBW)
	k := fatTreeK(nPorts)
	serverPorts := float64(k * k * k / 4)
	fabricPorts := float64(k*k*k) * fabricFraction
	switchPorts := serverPorts + fabricPorts
	// NIC ports + server transceivers for the ports actually used;
	// switch-side transceivers for every switch port; one fiber per link
	// (each fabric link joins two switch ports).
	nicSide := float64(nPorts) * (t.NICPort + t.Transceiver)
	switchSide := switchPorts * (t.ElectricalPort + t.Transceiver)
	fibers := (serverPorts + fabricPorts/2) * FiberCostPerLink
	return nicSide + switchSide + fibers
}

// IdealSwitch prices the Ideal Switch baseline as a full-bisection
// fat-tree giving each of the n servers d line-rate ports of linkBW
// (§5.2: "we estimate the cost of Ideal Switch with a full-bisection
// Fat-tree of the same bandwidth"). Real switches are radix-limited at
// line rate, so a d×B server attachment means d fabric ports per server.
func IdealSwitch(n, d int, linkBW float64) float64 {
	return fatTreeCost(n*d, linkBW, 1)
}

// FatTree prices a full-bisection fat-tree where each server has one NIC
// of the given bandwidth (the §5.1 similar-cost baseline shape).
func FatTree(n int, perServerBW float64) float64 {
	return fatTreeCost(n, perServerBW, 1)
}

// OversubFatTree prices a 2:1 oversubscribed fat-tree giving each server
// d line-rate ports but only half the fabric layer (§5.1).
func OversubFatTree(n, d int, linkBW float64) float64 {
	return fatTreeCost(n*d, linkBW, 0.5)
}

// DirectConnect prices a static point-to-point fabric using ifaces
// interfaces per server: NICs, transceivers and fibers only — no switch,
// panel or OCS ports. Expander and Torus fabrics are both bills of this
// shape; they differ only in how many interfaces the topology consumes.
func DirectConnect(n, ifaces int, linkBW float64) float64 {
	t := tierFor(linkBW)
	return float64(n*ifaces) * (t.NICPort + t.Transceiver + FiberCostPerLink)
}

// Expander prices a Jellyfish-style fabric: the full d interfaces in a
// direct-connect bill — the cheapest architecture (§5.2).
func Expander(n, d int, linkBW float64) float64 {
	return DirectConnect(n, d, linkBW)
}

// SiPML prices the SiP-ML fabric. Silicon-photonic ports are not
// commercial (Table 1); the paper's Figure 10 places SiP-ML as the most
// expensive fabric at every scale. We estimate the photonic port at 6×
// the 3D-MEMS OCS port plus a doubled transceiver, which reproduces that
// ordering across 128–2000 servers.
func SiPML(n, d int, linkBW float64) float64 {
	t := tierFor(linkBW)
	perIface := t.NICPort + 2*t.Transceiver + 6*t.OCSPort + FiberCostPerLink
	return float64(n*d) * perIface
}

// EquivalentFatTreeBandwidth returns the per-server bandwidth B_ft such
// that a full-bisection fat-tree costs the same as a TopoOpt patch-panel
// fabric with n servers, degree d, link bandwidth B (§5.1's similar-cost
// Fat-tree; B_ft < d×B). Solved by bisection on the monotone cost curve.
func EquivalentFatTreeBandwidth(n, d int, linkBW float64) float64 {
	target := TopoOptPatchPanel(n, d, linkBW)
	lo, hi := 1e9, float64(d)*linkBW
	if FatTree(n, hi) <= target {
		return hi
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if FatTree(n, mid) > target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// SiPRing prices the SiP-Ring variant: the physical-ring substrate keeps
// silicon-photonic ports (doubled transceivers like SiP-ML) but drops the
// fabric-wide reconfigurable switch fan-out, so the photonic premium
// shrinks from 6× to 3× the OCS port. The estimate lands between
// Expander and SiP-ML at every Table 2 scale.
func SiPRing(n, d int, linkBW float64) float64 {
	t := tierFor(linkBW)
	perIface := t.NICPort + 2*t.Transceiver + 3*t.OCSPort + FiberCostPerLink
	return float64(n*d) * perIface
}
