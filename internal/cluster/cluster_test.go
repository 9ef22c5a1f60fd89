package cluster

import (
	"testing"

	"topoopt/internal/flexnet"
	"topoopt/internal/model"
	"topoopt/internal/stats"
	"topoopt/internal/topo"
)

func TestSchedulerAllocateRelease(t *testing.T) {
	s := NewScheduler(8)
	a, err := s.Allocate(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 3 || s.Free() != 5 {
		t.Fatalf("alloc %v free %d", a, s.Free())
	}
	b, err := s.Allocate(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range b {
		for _, w := range a {
			if v == w {
				t.Fatal("overlapping shards")
			}
		}
	}
	if _, err := s.Allocate(1); err == nil {
		t.Error("over-allocation should fail")
	}
	s.Release(a)
	if s.Free() != 3 {
		t.Errorf("free = %d after release, want 3", s.Free())
	}
}

func smallModel() *model.Model {
	return model.CANDLE(model.CANDLEConfig{BatchPerGPU: 8, DenseLayers: 2,
		DenseLayerSize: 1024, DenseFeatLayers: 2, FeatLayerSize: 1024})
}

func smallDLRM() *model.Model {
	return model.DLRM(model.DLRMConfig{BatchPerGPU: 16, DenseLayers: 2, DenseLayerSize: 512,
		DenseFeatLayers: 2, FeatLayerSize: 512, EmbedDim: 64, EmbedRows: 1e5, EmbedTables: 4})
}

func TestJobPrepareScopedToShard(t *testing.T) {
	j := &Job{Model: smallDLRM(), Servers: []int{4, 5, 6, 7}, Batch: 16}
	if err := j.Prepare(16, model.A100); err != nil {
		t.Fatal(err)
	}
	// MP traffic must stay within the shard.
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if j.Demand.MP[s][d] == 0 {
				continue
			}
			if s < 4 || s > 7 || d < 4 || d > 7 {
				t.Fatalf("MP traffic %d->%d leaks outside shard", s, d)
			}
		}
	}
	for _, g := range j.Demand.Groups {
		if len(g.Members) != 4 {
			t.Errorf("AllReduce group size %d, want 4", len(g.Members))
		}
	}
	if j.Compute <= 0 {
		t.Error("compute time must be positive")
	}
}

func TestRunSharedTwoJobsContend(t *testing.T) {
	n := 8
	fab := flexnet.NewSwitchFabric(topo.FatTree(n, 10e9))
	j1 := &Job{Model: smallModel(), Servers: []int{0, 1, 2, 3}, Batch: 8}
	j2 := &Job{Model: smallModel(), Servers: []int{4, 5, 6, 7}, Batch: 8}
	times, err := RunShared(fab, []*Job{j1, j2}, 3, model.A100)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || len(times[0]) != 3 || len(times[1]) != 3 {
		t.Fatalf("shape wrong: %v", times)
	}
	for _, ts := range times {
		for _, x := range ts {
			if x <= 0 {
				t.Fatal("non-positive iteration time")
			}
		}
	}
	// Disjoint shards on a full-bisection switch should not contend:
	// solo run matches shared run closely.
	solo, err := RunShared(fab, []*Job{{Model: smallModel(), Servers: []int{0, 1, 2, 3}, Batch: 8}}, 3, model.A100)
	if err != nil {
		t.Fatal(err)
	}
	if r := times[0][0] / solo[0][0]; r > 1.05 {
		t.Errorf("full-bisection shards contended: shared/solo = %v", r)
	}
}

func TestOversubContendsMoreThanIdeal(t *testing.T) {
	n := 16
	mkJobs := func() []*Job {
		return []*Job{
			{Model: smallModel(), Servers: []int{0, 1, 2, 3, 4, 5, 6, 7}, Batch: 8},
			{Model: smallModel(), Servers: []int{8, 9, 10, 11, 12, 13, 14, 15}, Batch: 8},
		}
	}
	ideal := flexnet.NewSwitchFabric(topo.IdealSwitch(n, 40e9))
	over := flexnet.NewSwitchFabric(topo.OversubFatTree(n, 4, 40e9))
	ti, err := RunShared(ideal, mkJobs(), 2, model.A100)
	if err != nil {
		t.Fatal(err)
	}
	to, err := RunShared(over, mkJobs(), 2, model.A100)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mean(Flatten(to)) < stats.Mean(Flatten(ti)) {
		t.Errorf("oversubscribed fabric (%g) should be no faster than ideal (%g)",
			stats.Mean(Flatten(to)), stats.Mean(Flatten(ti)))
	}
}

func TestRunShardedTopoOptIsolated(t *testing.T) {
	jobs := []*Job{
		{Model: smallDLRM(), Servers: []int{0, 1, 2, 3, 4, 5, 6, 7}, Batch: 16},
		{Model: smallModel(), Servers: []int{8, 9, 10, 11, 12, 13, 14, 15}, Batch: 8},
	}
	times, err := RunShardedTopoOpt(jobs, 4, 25e9, 4, model.A100)
	if err != nil {
		t.Fatal(err)
	}
	for ji, ts := range times {
		if len(ts) != 4 {
			t.Fatalf("job %d: %d iterations", ji, len(ts))
		}
		for _, x := range ts[1:] {
			if x != ts[0] {
				t.Error("isolated iterations should be identical")
			}
		}
	}
}

func TestBuildMixComposition(t *testing.T) {
	sched := NewScheduler(432)
	jobs, err := BuildMix(sched, MixSpec{Jobs: 10, ServersPerJob: 16})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, j := range jobs {
		counts[j.Model.Name]++
	}
	if counts["DLRM"] != 4 || counts["BERT"] != 3 || counts["CANDLE"] != 2 || counts["VGG16"] != 1 {
		t.Errorf("mix = %v, want 4/3/2/1", counts)
	}
	if sched.Free() != 432-160 {
		t.Errorf("free = %d, want 272", sched.Free())
	}
	// Overflow.
	if _, err := BuildMix(NewScheduler(32), MixSpec{Jobs: 3, ServersPerJob: 16}); err == nil {
		t.Error("over-subscribed mix should fail")
	}
}

func TestFlatten(t *testing.T) {
	got := Flatten([][]float64{{1, 2}, {3}})
	if len(got) != 3 || got[2] != 3 {
		t.Errorf("Flatten = %v", got)
	}
}

func TestAllocateStridedSpreadsAcrossRacks(t *testing.T) {
	s := NewScheduler(32)
	shard, err := s.AllocateStrided(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	racks := map[int]bool{}
	for _, v := range shard {
		racks[v/8] = true
	}
	if len(racks) != 4 {
		t.Errorf("strided shard %v covers %d racks, want 4", shard, len(racks))
	}
	// Exhaustion still errors and rolls back.
	if _, err := s.AllocateStrided(40, 8); err == nil {
		t.Error("over-allocation should fail")
	}
	if s.Free() != 28 {
		t.Errorf("failed allocation should roll back: free = %d, want 28", s.Free())
	}
}
