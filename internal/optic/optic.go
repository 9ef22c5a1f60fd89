// Package optic models the optical switching technologies of Table 1:
// port counts, reconfiguration latencies, insertion loss and per-port
// cost. The simulator consumes only reconfiguration latency and cost;
// port count and insertion loss bound which devices a deployment can use.
package optic

import "fmt"

// Device is one optical switching technology.
type Device struct {
	Name            string
	PortCount       int
	ReconfigLatency float64 // seconds
	InsertionLossDB [2]float64
	CostPerPort     float64 // USD; 0 = not commercially available
	Commercial      bool
}

// Table 1 of the paper.
var (
	PatchPanel = Device{
		Name: "Optical Patch Panel", PortCount: 1008,
		ReconfigLatency: 120, // "minutes": use 2 min
		InsertionLossDB: [2]float64{0.5, 0.5}, CostPerPort: 100, Commercial: true,
	}
	MEMS3D = Device{
		Name: "3D MEMS", PortCount: 384,
		ReconfigLatency: 10e-3,
		InsertionLossDB: [2]float64{1.5, 2.7}, CostPerPort: 520, Commercial: true,
	}
	MEMS2D = Device{
		Name: "2D MEMS", PortCount: 300,
		ReconfigLatency: 11.5e-6,
		InsertionLossDB: [2]float64{10, 20},
	}
	SiliconPhotonics = Device{
		Name: "Silicon Photonics", PortCount: 256,
		ReconfigLatency: 900e-9,
		InsertionLossDB: [2]float64{3.7, 3.7},
	}
	TunableLaser = Device{
		Name: "Tunable Lasers", PortCount: 128,
		ReconfigLatency: 3.8e-9,
		InsertionLossDB: [2]float64{7, 13},
	}
	RotorNet = Device{
		Name: "RotorNet", PortCount: 64,
		ReconfigLatency: 10e-6,
		InsertionLossDB: [2]float64{2, 2},
	}
)

// All returns Table 1 in the paper's order.
func All() []Device {
	return []Device{PatchPanel, MEMS3D, MEMS2D, SiliconPhotonics, TunableLaser, RotorNet}
}

// String implements fmt.Stringer.
func (d Device) String() string {
	cost := "n/a"
	if d.CostPerPort > 0 {
		cost = fmt.Sprintf("$%.0f/port", d.CostPerPort)
	}
	return fmt.Sprintf("%s: %d ports, reconfig %.3gs, loss %.1f-%.1f dB, %s",
		d.Name, d.PortCount, d.ReconfigLatency, d.InsertionLossDB[0], d.InsertionLossDB[1], cost)
}

// OneByTwoSwitch is the $25 1×2 mechanical optical switch of the
// look-ahead design (Appendix C), 0.73 dB measured loss.
type OneByTwoSwitch struct{}

// Cost returns the per-unit cost in USD.
func (OneByTwoSwitch) Cost() float64 { return 25 }
