package flexnet

import (
	"sync"

	"topoopt/internal/model"
	"topoopt/internal/parallel"
	"topoopt/internal/traffic"
)

// DeltaEval is an incremental drop-in for the analytic evaluator closure
// (traffic.FromStrategy + EstimateIteration over a fixed fabric). It keeps
// the incumbent strategy's per-phase link loads as exact int64 byte counts
// and, when a proposal changes only a few layers — the MCMC moves touch
// one or two — subtracts the changed layers' old contributions and adds
// the new ones along the installed routes instead of rebuilding both
// traffic matrices and re-routing the whole fabric.
//
// Correctness rests on LinkLoads being additive: every matrix entry is a
// sum of per-layer contributions, each routed independently, so link
// loads can be patched contribution-by-contribution in exact integer
// arithmetic. Three places resist naive diffing and are handled
// explicitly:
//
//   - AllReduce groups are rendered with integer division
//     (collective.MultiRing's per-ring share and RingPerNodeBytes), so a
//     group's rendering is not linear in its byte count; any group whose
//     membership or byte total changed is un-rendered at its old state
//     and re-rendered at its new state as a whole.
//   - MP traffic depends on the consumers set (Strategy.Servers()). A
//     per-server refcount over all layer groups detects any change to the
//     set and falls back to a full rebuild, which every other sharded
//     layer's traffic would need anyway.
//   - The float max over link loads and the compute-time term are
//     recomputed from scratch every call (max is order-independent;
//     float sums are not exactly invertible), so the returned cost is
//     bit-identical to EstimateIteration however the incumbent evolved.
//
// Eval is safe for concurrent use (the chains of a Parallelism > 1
// search): a mutex serializes callers, and because every result equals
// the full evaluation of its argument regardless of the incumbent,
// interleaving order cannot perturb search results.
type DeltaEval struct {
	m     *model.Model
	fab   *Fabric
	batch int
	gpu   model.GPU

	mu sync.Mutex
	// Incumbent state; valid only when ok.
	ok        bool
	inc       parallel.Strategy
	refs      []int // per-server count of layer groups containing it
	consumers []int // incumbent Servers(), ascending
	// Per-phase link loads in the routing table's layout (index from*n+to).
	mpLoads []int64
	arLoads []int64
	groups  map[string]*arGroup

	changed []int // scratch: indices of layers that differ
	arDelta map[string]*arPatch
}

// arGroup is one incumbent AllReduce group: sorted members + byte total.
type arGroup struct {
	members []int
	bytes   int64
}

// arPatch accumulates a pending byte delta for one group key.
type arPatch struct {
	members []int
	delta   int64
}

// NewDeltaEval returns an evaluator over a fixed fabric that scores
// strategies exactly like the closure
//
//	d, err := traffic.FromStrategy(m, s, batch)
//	if err != nil { return inf }
//	return EstimateIteration(fab, d, s.MaxComputeTime(m, gpu, batch))
//
// but incrementally. A batch ≤ 0 inherits the model default, matching
// SearchOnFabric; a zero GPU inherits model.A100.
func NewDeltaEval(m *model.Model, fab *Fabric, batch int, gpu model.GPU) *DeltaEval {
	if batch <= 0 {
		batch = m.BatchPerGPU
	}
	if gpu.PeakFLOPS == 0 {
		gpu = model.A100
	}
	return &DeltaEval{
		m:       m,
		fab:     fab,
		batch:   batch,
		gpu:     gpu,
		mpLoads: make([]int64, len(fab.caps)),
		arLoads: make([]int64, len(fab.caps)),
		arDelta: make(map[string]*arPatch),
	}
}

// Eval scores the strategy; lower is better (iteration seconds). The
// result is bit-identical to the full analytic evaluation for every
// input, including invalid strategies (inf) and degenerate fabrics.
func (de *DeltaEval) Eval(s parallel.Strategy) float64 {
	de.mu.Lock()
	defer de.mu.Unlock()

	if !de.ok || s.N != de.inc.N || len(s.Layers) != len(de.inc.Layers) {
		return de.rebuild(s)
	}
	de.changed = de.changed[:0]
	for i := range s.Layers {
		if !sameLayer(s.Layers[i], de.inc.Layers[i]) {
			de.changed = append(de.changed, i)
		}
	}
	if len(de.changed) == 0 {
		return de.score(s)
	}
	// A proposal touching most layers (a warm candidate from a different
	// family of starts) diffs no cheaper than a rebuild.
	if 2*len(de.changed) >= len(s.Layers) {
		return de.rebuild(s)
	}
	// Validate the changed layers before touching any state, so an invalid
	// proposal returns inf with the incumbent intact. Unchanged layers
	// were validated when they entered the incumbent.
	for _, li := range de.changed {
		if !de.validLayer(li, s.Layers[li]) {
			return inf
		}
	}
	// Update the per-server refcounts; if any server enters or leaves the
	// union of groups, the consumers set changed and every sharded layer's
	// MP traffic with it — rebuild (which recomputes refs wholesale).
	consumersChanged := false
	for _, li := range de.changed {
		for _, v := range de.inc.Layers[li].Group {
			de.refs[v]--
			if de.refs[v] == 0 {
				consumersChanged = true
			}
		}
		for _, v := range s.Layers[li].Group {
			de.refs[v]++
			if de.refs[v] == 1 {
				consumersChanged = true
			}
		}
	}
	if consumersChanged {
		return de.rebuild(s)
	}

	for _, li := range de.changed {
		de.chargeMP(li, de.inc.Layers[li], -1)
		de.chargeMP(li, s.Layers[li], +1)
		de.stageAR(li, de.inc.Layers[li], -1)
		de.stageAR(li, s.Layers[li], +1)
	}
	de.applyAR()

	for _, li := range de.changed {
		ls := s.Layers[li]
		de.inc.Layers[li] = parallel.LayerStrategy{Kind: ls.Kind, Group: append([]int(nil), ls.Group...)}
	}
	return de.score(s)
}

// rebuild recomputes the incumbent state from scratch via the exact full
// evaluation path and returns the score.
func (de *DeltaEval) rebuild(s parallel.Strategy) float64 {
	dem, err := traffic.FromStrategy(de.m, s, de.batch)
	if err != nil {
		de.ok = false
		return inf
	}
	clear(de.mpLoads)
	de.fab.Routes.LinkLoads(de.fab.MPMatrix(dem), de.mpLoads)
	clear(de.arLoads)
	de.fab.Routes.LinkLoads(de.fab.AllReduceMatrix(dem), de.arLoads)
	de.groups = make(map[string]*arGroup, len(dem.Groups))
	for _, g := range dem.Groups {
		de.groups[memberKey(g.Members)] = &arGroup{members: g.Members, bytes: g.Bytes}
	}
	if cap(de.refs) < s.N {
		de.refs = make([]int, s.N)
	} else {
		de.refs = de.refs[:s.N]
		clear(de.refs)
	}
	for _, ls := range s.Layers {
		for _, v := range ls.Group {
			de.refs[v]++
		}
	}
	de.consumers = s.Servers()
	de.inc = s.Clone()
	de.ok = true
	return de.score(s)
}

// score computes phase(MP) + compute + phase(AR) exactly like
// EstimateIteration, in the same order, from the maintained link loads.
func (de *DeltaEval) score(s parallel.Strategy) float64 {
	return de.fab.phaseTime(de.mpLoads) + s.MaxComputeTime(de.m, de.gpu, de.batch) + de.fab.phaseTime(de.arLoads)
}

// chargeMP adds (sign=+1) or removes (sign=-1) one sharded layer's MP
// contribution, replaying traffic.FromStrategy's sharded case along the
// installed routes.
func (de *DeltaEval) chargeMP(li int, ls parallel.LayerStrategy, sign int64) {
	if ls.Kind != parallel.Sharded {
		return
	}
	per := int64(de.batch) * de.m.Layers[li].ActBytesPerSample / int64(len(ls.Group))
	if per == 0 {
		return
	}
	for _, h := range ls.Group {
		for _, c := range de.consumers {
			if c == h {
				continue
			}
			de.fab.Routes.AddLoad(de.mpLoads, h, c, sign*per) // forward activations
			de.fab.Routes.AddLoad(de.mpLoads, c, h, sign*per) // backward gradients
		}
	}
}

// stageAR records one replicated layer's pending byte delta against its
// (sorted-members) group, mirroring traffic.FromStrategy's merge rule.
// Groups are re-rendered whole in applyAR because the ring split is not
// linear in bytes.
func (de *DeltaEval) stageAR(li int, ls parallel.LayerStrategy, sign int64) {
	if ls.Kind != parallel.Replicated || len(ls.Group) < 2 || de.m.Layers[li].ParamBytes == 0 {
		return
	}
	sorted := append([]int(nil), ls.Group...)
	insertionSort(sorted)
	key := memberKey(sorted)
	p := de.arDelta[key]
	if p == nil {
		p = &arPatch{members: sorted}
		de.arDelta[key] = p
	}
	p.delta += sign * de.m.Layers[li].ParamBytes
}

// applyAR replays every staged group delta: un-render the group at its
// old byte total, re-render at the new one, and update the group map.
func (de *DeltaEval) applyAR() {
	for key, p := range de.arDelta {
		if p.delta != 0 {
			g := de.groups[key]
			var old int64
			members := p.members
			if g != nil {
				old = g.bytes
				members = g.members
				de.chargeGroup(members, old, -1)
			}
			now := old + p.delta
			if now > 0 {
				de.chargeGroup(members, now, +1)
				if g != nil {
					g.bytes = now
				} else {
					de.groups[key] = &arGroup{members: members, bytes: now}
				}
			} else {
				delete(de.groups, key)
			}
		}
		delete(de.arDelta, key)
	}
}

// chargeGroup adds or removes one AllReduce group's full rendering,
// replaying collective.MultiRing onto the link loads.
func (de *DeltaEval) chargeGroup(members []int, bytes int64, sign int64) {
	ps := de.fab.ringsFor(members)
	share := bytes / int64(len(ps))
	rem := bytes - share*int64(len(ps))
	k := len(members)
	for i, p := range ps {
		b := share
		if i == 0 {
			b += rem
		}
		per := traffic.RingPerNodeBytes(b, k)
		if per == 0 {
			continue
		}
		for j := 0; j < k; j++ {
			de.fab.Routes.AddLoad(de.arLoads, members[j], members[(j+p)%k], sign*per)
		}
	}
}

// validLayer mirrors Strategy.Validate for a single layer without
// allocating: bounds, duplicates, shardability.
func (de *DeltaEval) validLayer(li int, ls parallel.LayerStrategy) bool {
	if len(ls.Group) == 0 {
		return false
	}
	for i, v := range ls.Group {
		if v < 0 || v >= de.inc.N {
			return false
		}
		for j := 0; j < i; j++ {
			if ls.Group[j] == v {
				return false
			}
		}
	}
	return ls.Kind != parallel.Sharded || de.m.Layers[li].Shardable
}

// sameLayer reports whether two layer strategies are literally equal
// (kind and group, order-sensitive — a reordered group diffs as changed
// and is handled by the subtract/add cycle, which is a no-op).
func sameLayer(a, b parallel.LayerStrategy) bool {
	if a.Kind != b.Kind || len(a.Group) != len(b.Group) {
		return false
	}
	for i := range a.Group {
		if a.Group[i] != b.Group[i] {
			return false
		}
	}
	return true
}

// memberKey is a compact exact key over a sorted member list.
func memberKey(sorted []int) string {
	b := make([]byte, 0, 4*len(sorted))
	for _, v := range sorted {
		for v >= 0x80 {
			b = append(b, byte(v)|0x80)
			v >>= 7
		}
		b = append(b, byte(v))
	}
	return string(b)
}

// insertionSort sorts tiny group slices in place without the sort
// package's interface allocations.
func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}
