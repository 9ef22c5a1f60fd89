// Shared-cluster example: the §5.6 scenario (Figure 16) at reduced
// scale. A mix of DLRM/BERT/CANDLE/VGG jobs shares a cluster; TopoOpt
// carves optically isolated partitions per job while the Fat-tree,
// oversubscribed Fat-tree and ideal-switch baselines contend, inflating
// tail iteration times as load grows.
package main

import (
	"fmt"

	"topoopt/internal/experiments"
)

func main() {
	fmt.Print(experiments.Fig16SharedCluster(experiments.Quick))
}
