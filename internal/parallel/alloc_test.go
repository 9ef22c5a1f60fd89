//go:build !race

package parallel

import (
	"testing"

	"topoopt/internal/model"
)

// TestMaxComputeTimeAllocsConstant: the job's servers are counted once
// per call, so MaxComputeTime allocates the same few objects however
// many layers are sharded. Excluded under the race detector, which adds
// allocations of its own.
func TestMaxComputeTimeAllocsConstant(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *model.Model
		n    int
	}{
		{"dlrm §5.3", model.DLRMPreset(model.Sec53), 32},
		{"ncf", model.NCFPreset(), 16},
		{"dlrm §6", model.DLRMPreset(model.Sec6), 12},
		{"vgg16", model.VGGPreset(model.Sec53), 16},
	} {
		s := Hybrid(tc.m, tc.n)
		allocs := testing.AllocsPerRun(20, func() {
			s.MaxComputeTime(tc.m, model.A100, tc.m.BatchPerGPU)
		})
		// One slice of per-server times, one of server marks.
		if allocs > 2 {
			t.Errorf("%s on %d servers, %d sharded layers: %v allocations per call, want at most 2",
				tc.name, tc.n, len(s.ShardedLayers()), allocs)
		}
	}
}
