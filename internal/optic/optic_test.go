package optic

import (
	"strings"
	"testing"
)

func TestTable1Contents(t *testing.T) {
	all := All()
	if len(all) != 6 {
		t.Fatalf("devices = %d, want 6", len(all))
	}
	if all[0].Name != "Optical Patch Panel" || all[0].PortCount != 1008 {
		t.Errorf("first row wrong: %+v", all[0])
	}
	// Commercial availability (Table 1): only patch panel and 3D MEMS.
	commercial := 0
	for _, d := range all {
		if d.Commercial {
			commercial++
			if d.CostPerPort <= 0 {
				t.Errorf("%s commercial without a price", d.Name)
			}
		}
	}
	if commercial != 2 {
		t.Errorf("commercial devices = %d, want 2", commercial)
	}
	// Latency ordering: patch panel slowest, tunable laser fastest.
	if !(PatchPanel.ReconfigLatency > MEMS3D.ReconfigLatency &&
		MEMS3D.ReconfigLatency > MEMS2D.ReconfigLatency &&
		MEMS2D.ReconfigLatency > SiliconPhotonics.ReconfigLatency &&
		SiliconPhotonics.ReconfigLatency > TunableLaser.ReconfigLatency) {
		t.Error("reconfiguration latency ordering broken")
	}
}

func TestString(t *testing.T) {
	s := PatchPanel.String()
	if !strings.Contains(s, "1008") || !strings.Contains(s, "$100/port") {
		t.Errorf("string missing fields: %s", s)
	}
	if !strings.Contains(MEMS2D.String(), "n/a") {
		t.Error("non-commercial should print n/a")
	}
}

func TestOneByTwoSwitch(t *testing.T) {
	var sw OneByTwoSwitch
	if sw.Cost() != 25 {
		t.Errorf("1x2 switch cost $%g, want $25", sw.Cost())
	}
}
