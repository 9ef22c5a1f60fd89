package experiments

import (
	"fmt"
	"strings"

	"topoopt/internal/flexnet"
	"topoopt/internal/model"
	"topoopt/internal/parallel"
	"topoopt/internal/perm"
	"topoopt/internal/topo"
	"topoopt/internal/traffic"
)

// ExtTotientPermsFatTree explores the §7 suggestion that TotientPerms is
// of independent interest on Fat-trees: load-balancing one AllReduce
// across several ring permutations on an oversubscribed two-tier fabric.
// On a full-bisection fabric permutations are equivalent (uniform
// bandwidth); under oversubscription the +1 ring keeps most hops
// intra-rack while larger strides cross the contended uplinks, so the
// experiment quantifies that trade-off per rack size.
func ExtTotientPermsFatTree(p Params) string {
	var b strings.Builder
	b.WriteString(header("Extension (§7)", "TotientPerms load-balancing on Fat-trees"))
	n := 32
	m := model.CANDLEPreset(model.Sec56)
	st := parallel.DataParallel(m, n)
	dem, err := traffic.FromStrategy(m, st, m.BatchPerGPU)
	if err != nil {
		return b.String() + "error: " + err.Error()
	}
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	ringSets := map[string][]int{
		"single +1 ring":  {1},
		"TotientPerms x4": perm.SelectPermutations(n, 4, perm.Coprimes(n)),
	}
	for _, rack := range []int{8, 16} {
		fmt.Fprintf(&b, "\n2:1 oversubscribed Fat-tree, racks of %d, 100 Gbps/server:\n", rack)
		for _, name := range []string{"single +1 ring", "TotientPerms x4"} {
			ps := ringSets[name]
			fab := flexnet.NewSwitchFabric(topo.OversubFatTree(n, rack, 100e9))
			// Render the rings explicitly as grouped demand so the
			// fabric's +1 fallback does not override the permutation set.
			tm := traffic.NewMatrix(fab.Net.G.N())
			share := dem.Groups[0].Bytes / int64(len(ps))
			for _, pp := range ps {
				per := traffic.RingPerNodeBytes(share, n)
				for i := 0; i < n; i++ {
					tm.Add(members[i], members[(i+pp)%n], per)
				}
			}
			it, err := simulateMatrix(fab, tm)
			if err != nil {
				fmt.Fprintf(&b, "  %-18s error: %v\n", name, err)
				continue
			}
			fmt.Fprintf(&b, "  %-18s AllReduce time %s\n", name, secs(it))
		}
	}
	b.WriteString("\nfull-bisection control (permutation-invariant by uniform bandwidth):\n")
	for _, name := range []string{"single +1 ring", "TotientPerms x4"} {
		ps := ringSets[name]
		fab := flexnet.NewSwitchFabric(topo.IdealSwitch(n, 100e9))
		tm := traffic.NewMatrix(fab.Net.G.N())
		share := dem.Groups[0].Bytes / int64(len(ps))
		for _, pp := range ps {
			per := traffic.RingPerNodeBytes(share, n)
			for i := 0; i < n; i++ {
				tm.Add(members[i], members[(i+pp)%n], per)
			}
		}
		it, err := simulateMatrix(fab, tm)
		if err != nil {
			fmt.Fprintf(&b, "  %-18s error: %v\n", name, err)
			continue
		}
		fmt.Fprintf(&b, "  %-18s AllReduce time %s\n", name, secs(it))
	}
	return b.String()
}

// simulateMatrix runs one traffic matrix on a fabric to completion.
func simulateMatrix(fab *flexnet.Fabric, tm traffic.Matrix) (float64, error) {
	dem := traffic.Demand{N: tm.N(), MP: tm}
	it, err := flexnet.SimulateIteration(fab, dem, 0)
	if err != nil {
		return 0, err
	}
	return it.MPTime, nil
}
