package core

import (
	"testing"

	"topoopt/internal/model"
	"topoopt/internal/parallel"
	"topoopt/internal/traffic"
)

// BenchmarkTopologyFinder times Algorithm 1 on dlrm §5.3's hybrid demand
// at 32 servers and degree 4, the first topology CoOptimize builds for
// that job. Its 64 embedding tables sit on every server, so every ordered
// pair carries MP traffic and gets a shortest-path search.
func BenchmarkTopologyFinder(b *testing.B) {
	m := model.DLRMPreset(model.Sec53)
	dem, err := traffic.FromStrategy(m, parallel.Hybrid(m, 32), m.BatchPerGPU)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{N: 32, D: 4, LinkBW: 100e9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopologyFinder(cfg, dem); err != nil {
			b.Fatal(err)
		}
	}
}
