// Package netsim is an event-driven flow-level network simulator — this
// repository's substitute for the paper's htsim-based FlexNetPacket (§5.1;
// see DESIGN.md for the substitution argument). Flows traverse fixed paths
// of directed links; active flows share link capacity by progressive
// filling (max-min fairness), recomputed at every flow arrival, departure
// and capacity change. Completion times additionally pay a per-hop
// propagation latency (the paper uses 1 µs per link).
//
// The simulator also provides plain timer events so callers (the flexnet
// task-graph engine, the cluster scheduler, OCS reconfiguration logic) can
// interleave computation and control-plane actions with network activity.
//
// The data plane is incremental and allocation-free on the steady-state
// path (see DESIGN.md, "Simulator performance"): per-link state lives in
// flat slices indexed by edge ID, link→flow adjacency is maintained on
// flow add/remove rather than rebuilt per reallocation, completed Flow
// structs are recycled through a free list, and rate recomputation is
// deferred until simulated time next advances, so a burst of arrivals at
// one instant pays for a single progressive-filling pass.
package netsim

import (
	"fmt"
	"math"
	"slices"

	"topoopt/internal/graph"
)

// DefaultLinkLatency is the per-hop propagation delay (§5.1: 1 µs).
const DefaultLinkLatency = 1e-6

// completionTolerance is the byte remainder below which a flow counts as
// finished, absorbing floating-point residue between rate allocation and
// event timestamps.
const completionTolerance = 1e-3

// Flow is an in-flight transfer.
//
// Flow structs are recycled: once a flow completes (its onComplete has
// fired), the struct may be reused for a flow added later to the same Sim,
// and by Reset for the next simulation. Callers may read a completed
// flow's fields only until the next AddFlow*/Reset call.
type Flow struct {
	ID    int
	Path  []int // edge IDs, in order
	Bytes float64
	// Remaining bytes to deliver.
	Remaining float64
	// Rate currently allocated, bits/s.
	Rate float64
	// onComplete runs when the last byte arrives (including hop latency).
	onComplete func(now float64)
	start      float64
	done       bool

	// uniq is Path with duplicate edges removed: a flow crossing a link
	// twice still gets one fair share there, and adjacency/bookkeeping
	// updates must touch each link exactly once.
	uniq []int
	// slot is this flow's index in Sim.active (-1 while not active).
	slot int
	// frozen is progressive-filling scratch, valid only inside reallocate.
	frozen bool
}

// Sim is the simulator instance. Create with New; the zero value is not
// usable. A Sim may be reused across simulations via Reset, which keeps
// all internal buffers warm.
type Sim struct {
	g           *graph.Graph
	linkCap     []float64 // effective capacity per edge (bits/s)
	linkLatency float64

	now     float64
	events  eventHeap
	eventID int

	// active is the dense list of in-flight flows; each flow's slot field
	// is its index here (swap-removal on completion).
	active []*Flow
	nextID int
	// pool holds completed Flow structs for reuse, so steady-state flow
	// churn allocates nothing.
	pool []*Flow

	// linkFlows[e] is the set of active flows crossing edge e, maintained
	// incrementally on add/remove. len(linkFlows[e]) doubles as the
	// per-link active-flow count used by resolveNodePath.
	linkFlows [][]*Flow
	// usedLinks lists edges with at least one active flow. Entries go
	// stale when a link drains; reallocate compacts the list in place.
	usedLinks []int
	inUsed    []bool

	// Progressive-filling scratch, reused across reallocations. Entries
	// are (re)initialized per call for used links only.
	remaining []float64 // unallocated capacity per edge
	unfrozen  []int     // unfrozen flows per edge
	doneBuf   []*Flow   // drainCompletions scratch

	// ratesDirty marks that flows/capacities changed at the current
	// instant; rates are recomputed lazily before time next advances.
	ratesDirty bool

	// Stats.
	completed      int
	bytesDelivered float64
	byteHops       float64 // Σ bytes × hops: bandwidth-tax numerator

	pathBuf []int // resolveNodePath scratch
}

// New builds a simulator over the given graph, taking initial link
// capacities from the edges. A negative linkLatency selects
// DefaultLinkLatency; zero disables propagation delay.
func New(g *graph.Graph, linkLatency float64) *Sim {
	s := &Sim{}
	s.Reset(g, linkLatency)
	return s
}

// Reset returns the simulator to the empty state over a (possibly
// different) graph, reusing every internal buffer — the cheap path for
// callers that simulate many scenarios in a loop (MCMC evaluations, OCS
// reconfiguration rounds, sweep points). Pending events are dropped and
// all statistics are zeroed. Flow structs still held by the caller may be
// recycled for flows of the next simulation.
func (s *Sim) Reset(g *graph.Graph, linkLatency float64) {
	if linkLatency < 0 {
		linkLatency = DefaultLinkLatency
	}
	s.g = g
	s.linkLatency = linkLatency
	m := g.M()
	s.linkCap = slices.Grow(s.linkCap[:0], m)[:m]
	for i := 0; i < m; i++ {
		s.linkCap[i] = g.EdgeCap(i)
	}
	s.linkFlows = slices.Grow(s.linkFlows[:0], m)[:m]
	for i := range s.linkFlows {
		if s.linkFlows[i] != nil {
			s.linkFlows[i] = s.linkFlows[i][:0]
		}
	}
	s.inUsed = slices.Grow(s.inUsed[:0], m)[:m]
	for i := range s.inUsed {
		s.inUsed[i] = false
	}
	s.remaining = slices.Grow(s.remaining[:0], m)[:m]
	s.unfrozen = slices.Grow(s.unfrozen[:0], m)[:m]
	s.usedLinks = s.usedLinks[:0]
	for _, f := range s.active {
		f.slot = -1
		s.pool = append(s.pool, f)
	}
	s.active = s.active[:0]
	// Recycle flows awaiting delivery (drained but not finished — disjoint
	// from active) and zero every dropped event so the truncated backing
	// array pins no closures or Flow structs from the previous run.
	for i := range s.events {
		e := &s.events[i]
		if e.kind == evtFinish && e.flow != nil && !e.flow.done {
			s.pool = append(s.pool, e.flow)
		}
		*e = event{}
	}
	s.events = s.events[:0]
	s.eventID = 0
	s.now = 0
	s.nextID = 0
	s.ratesDirty = false
	s.completed = 0
	s.bytesDelivered = 0
	s.byteHops = 0
}

// Now returns the current simulation time in seconds.
func (s *Sim) Now() float64 { return s.now }

// BandwidthTax returns Σ(bytes×hops)/Σ(bytes) across finished flows — the
// §5.4 bandwidth-tax metric. Returns 1 when nothing has finished.
func (s *Sim) BandwidthTax() float64 {
	if s.bytesDelivered == 0 {
		return 1
	}
	return s.byteHops / s.bytesDelivered
}

// SetLinkCap changes a link's capacity (0 disables it, e.g. during
// reconfiguration). Flow rates are reallocated before simulated time next
// advances.
func (s *Sim) SetLinkCap(edgeID int, cap float64) {
	if cap < 0 {
		cap = 0
	}
	s.linkCap[edgeID] = cap
	s.ratesDirty = true
}

// event types

type eventKind uint8

const (
	evtFn     eventKind = iota // user callback
	evtDrain                   // completion check
	evtFinish                  // deliver a drained flow after hop latency
)

type event struct {
	at   float64
	seq  int // tie-break for determinism
	kind eventKind
	flow *Flow
	fn   func()
}

// eventHeap is a hand-rolled binary min-heap of event values, ordered by
// (at, seq). container/heap is avoided because its interface{} boxing
// allocates on every push/pop.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (s *Sim) pushEvent(e event) {
	e.seq = s.eventID
	s.eventID++
	h := append(s.events, e)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	s.events = h
}

func (s *Sim) popEvent() event {
	h := s.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // release fn/flow references
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
	s.events = h
	return top
}

// Schedule runs fn at now+delay. Negative delays fire immediately.
func (s *Sim) Schedule(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.pushEvent(event{at: s.now + delay, kind: evtFn, fn: fn})
}

// newFlow takes a Flow struct from the free list (or allocates one) and
// initializes it for a fresh transfer. IDs stay monotonically increasing
// even when structs are recycled: completion ties break by ID, so reusing
// IDs would reorder same-instant completions between runs.
func (s *Sim) newFlow(bytes float64, onComplete func(now float64)) *Flow {
	var f *Flow
	if n := len(s.pool); n > 0 {
		f = s.pool[n-1]
		s.pool[n-1] = nil
		s.pool = s.pool[:n-1]
	} else {
		f = &Flow{}
	}
	f.ID = s.nextID
	s.nextID++
	f.Bytes = bytes
	f.Remaining = bytes
	f.Rate = 0
	f.onComplete = onComplete
	f.start = s.now
	f.done = false
	f.slot = -1
	return f
}

// AddFlowPath injects a flow along explicit edge IDs. onComplete may be
// nil. Zero-byte flows complete after path latency only.
func (s *Sim) AddFlowPath(path []int, bytes float64, onComplete func(now float64)) *Flow {
	if bytes < 0 {
		panic("netsim: negative flow size")
	}
	f := s.newFlow(bytes, onComplete)
	f.Path = append(f.Path[:0], path...)
	if bytes == 0 || len(path) == 0 {
		lat := float64(len(path)) * s.linkLatency
		s.pushEvent(event{at: s.now + lat, kind: evtFinish, flow: f})
		return f
	}
	f.uniq = f.uniq[:0]
	for _, id := range f.Path {
		if !slices.Contains(f.uniq, id) {
			f.uniq = append(f.uniq, id)
		}
	}
	f.slot = len(s.active)
	s.active = append(s.active, f)
	for _, id := range f.uniq {
		if !s.inUsed[id] {
			s.usedLinks = append(s.usedLinks, id)
			s.inUsed[id] = true
		}
		s.linkFlows[id] = append(s.linkFlows[id], f)
	}
	s.ratesDirty = true
	return f
}

// removeActive detaches a flow from the rate-allocation structures: the
// dense active list (swap-removal via slots) and every link's adjacency.
func (s *Sim) removeActive(f *Flow) {
	last := len(s.active) - 1
	moved := s.active[last]
	s.active[f.slot] = moved
	moved.slot = f.slot
	s.active[last] = nil
	s.active = s.active[:last]
	f.slot = -1
	for _, id := range f.uniq {
		lf := s.linkFlows[id]
		for i, other := range lf {
			if other == f {
				lf[i] = lf[len(lf)-1]
				lf[len(lf)-1] = nil
				s.linkFlows[id] = lf[:len(lf)-1]
				break
			}
		}
		// usedLinks entries for drained links go stale here; reallocate
		// compacts them.
	}
}

// AddFlowNodes injects a flow along a node path (as produced by the route
// package), resolving each consecutive pair to the least-loaded parallel
// link between them.
func (s *Sim) AddFlowNodes(nodes []int, bytes float64, onComplete func(now float64)) (*Flow, error) {
	path, err := s.resolveNodePath(nodes)
	if err != nil {
		return nil, err
	}
	return s.AddFlowPath(path, bytes, onComplete), nil
}

// AddFlowNodesStriped splits a transfer into parallel sub-flows, one per
// parallel link available along the narrowest hop of the path (capped at
// maxStripes; 0 means no cap). This models NCCL channel striping and the
// paper's load-balancing across TotientPerms parallel links: the pair's
// aggregate rate becomes the sum of the parallel links' fair shares.
// onComplete fires once, when the last stripe lands.
func (s *Sim) AddFlowNodesStriped(nodes []int, bytes float64, maxStripes int, onComplete func(now float64)) ([]*Flow, error) {
	stripes := s.pathMultiplicity(nodes)
	if stripes < 1 {
		stripes = 1
	}
	if maxStripes > 0 && stripes > maxStripes {
		stripes = maxStripes
	}
	per := bytes / float64(stripes)
	remaining := stripes
	var flows []*Flow
	for i := 0; i < stripes; i++ {
		f, err := s.AddFlowNodes(nodes, per, func(now float64) {
			remaining--
			if remaining == 0 && onComplete != nil {
				onComplete(now)
			}
		})
		if err != nil {
			return flows, err
		}
		flows = append(flows, f)
	}
	return flows, nil
}

// pathMultiplicity returns the minimum number of usable parallel links
// over the hops of a node path.
func (s *Sim) pathMultiplicity(nodes []int) int {
	min := 0
	for i := 0; i+1 < len(nodes); i++ {
		m := 0
		for _, id := range s.g.Out(nodes[i]) {
			if s.g.EdgeTo(id) == nodes[i+1] && s.linkCap[id] > 0 {
				m++
			}
		}
		if min == 0 || m < min {
			min = m
		}
	}
	return min
}

// resolveNodePath converts a node path into edge IDs, choosing for each
// hop the parallel link with the fewest active flows (cheap load
// balancing across TotientPerms parallel rings). The result lives in a
// reused scratch buffer and is valid until the next resolve.
func (s *Sim) resolveNodePath(nodes []int) ([]int, error) {
	path := s.pathBuf[:0]
	for i := 0; i+1 < len(nodes); i++ {
		bestID, bestLoad := -1, math.MaxInt32
		for _, id := range s.g.Out(nodes[i]) {
			if s.g.EdgeTo(id) != nodes[i+1] || s.linkCap[id] <= 0 {
				continue
			}
			// Per-link load is maintained incrementally, making each hop
			// O(out-degree) instead of a scan over every active flow.
			if load := len(s.linkFlows[id]); load < bestLoad {
				bestID, bestLoad = id, load
			}
		}
		if bestID == -1 {
			s.pathBuf = path
			return nil, fmt.Errorf("netsim: no usable link %d -> %d", nodes[i], nodes[i+1])
		}
		path = append(path, bestID)
	}
	s.pathBuf = path
	return path, nil
}

// flushRates recomputes fair-share rates if flows or capacities changed at
// the current instant. Called before simulated time advances, so a burst
// of same-time arrivals costs one progressive-filling pass.
func (s *Sim) flushRates() {
	if s.ratesDirty {
		s.ratesDirty = false
		s.reallocate()
	}
}

// reallocate recomputes max-min fair rates by progressive filling over the
// incrementally maintained link→flow adjacency. It allocates nothing: all
// working state lives in flat per-edge slices reused across calls, and
// iteration order (usedLinks, active, linkFlows) is slice-deterministic.
func (s *Sim) reallocate() {
	// Compact stale entries (links whose last flow departed).
	used := s.usedLinks[:0]
	for _, id := range s.usedLinks {
		if len(s.linkFlows[id]) > 0 {
			used = append(used, id)
		} else {
			s.inUsed[id] = false
		}
	}
	s.usedLinks = used
	if len(s.active) == 0 {
		return
	}
	for _, id := range s.usedLinks {
		s.remaining[id] = s.linkCap[id]
		s.unfrozen[id] = len(s.linkFlows[id])
	}
	for _, f := range s.active {
		f.Rate = 0
		f.frozen = false
	}
	left := len(s.active)
	for left > 0 {
		// Find bottleneck link: min remaining/unfrozen, ties to the lowest
		// edge ID.
		bottleneck := -1
		fair := math.Inf(1)
		for _, id := range s.usedLinks {
			cnt := s.unfrozen[id]
			if cnt == 0 {
				continue
			}
			fr := s.remaining[id] / float64(cnt)
			if fr < fair || (fr == fair && (bottleneck == -1 || id < bottleneck)) {
				fair = fr
				bottleneck = id
			}
		}
		if bottleneck == -1 {
			// Flows not constrained by any shared link (shouldn't happen:
			// every flow has >= 1 link). Freeze them at +Inf — completes
			// instantly.
			for _, f := range s.active {
				if !f.frozen {
					f.Rate = math.Inf(1)
					f.frozen = true
				}
			}
			break
		}
		// Freeze every unfrozen flow through the bottleneck at the fair
		// rate, and charge their rate to all their other links.
		for _, f := range s.linkFlows[bottleneck] {
			if f.frozen {
				continue
			}
			f.Rate = fair
			f.frozen = true
			left--
			for _, id := range f.uniq {
				s.remaining[id] -= fair
				if s.remaining[id] < 0 {
					s.remaining[id] = 0
				}
				s.unfrozen[id]--
			}
		}
	}
	s.scheduleNextCompletion()
}

// completionEvent is lazily validated: we re-check at fire time whether
// the flow actually finished (rates may have changed since scheduling).
func (s *Sim) scheduleNextCompletion() {
	soonest := math.Inf(1)
	for _, f := range s.active {
		if f.Rate <= 0 {
			continue
		}
		t := f.Remaining * 8 / f.Rate
		if t < soonest {
			soonest = t
		}
	}
	if math.IsInf(soonest, 1) {
		return
	}
	s.pushEvent(event{at: s.now + soonest, kind: evtDrain})
}

// advanceFlows progresses all flow byte counters to the current time,
// given the time elapsed since the last progress point.
func (s *Sim) advanceFlows(elapsed float64) {
	if elapsed <= 0 {
		return
	}
	for _, f := range s.active {
		if f.Rate > 0 {
			f.Remaining -= f.Rate * elapsed / 8
			// Snap float residue: completion events land at times computed
			// from these very rates, so after the event fires the true
			// remainder is a rounding artifact. A millibyte is far below
			// any physical transfer granularity and far above the relative
			// epsilon of any flow size we simulate (< 1e13 bytes).
			if f.Remaining < completionTolerance {
				f.Remaining = 0
			}
		}
	}
}

// drainCompletions finishes any flow whose bytes ran out.
func (s *Sim) drainCompletions() {
	done := s.doneBuf[:0]
	for _, f := range s.active {
		if f.Remaining <= completionTolerance {
			done = append(done, f)
		}
	}
	if len(done) == 0 {
		// Spurious wake-up after a rate change; reschedule.
		s.scheduleNextCompletion()
		return
	}
	// Deterministic order: injection order (IDs are monotonic).
	slices.SortFunc(done, func(a, b *Flow) int { return a.ID - b.ID })
	for _, f := range done {
		s.removeActive(f)
		lat := float64(len(f.Path)) * s.linkLatency
		s.pushEvent(event{at: s.now + lat, kind: evtFinish, flow: f})
	}
	for i := range done {
		done[i] = nil
	}
	s.doneBuf = done[:0]
	s.ratesDirty = true
}

func (s *Sim) finish(f *Flow) {
	if f.done {
		return
	}
	f.done = true
	s.completed++
	s.bytesDelivered += f.Bytes
	s.byteHops += f.Bytes * float64(len(f.Path))
	cb := f.onComplete
	f.onComplete = nil
	// Recycle the struct before the callback: a callback that injects new
	// flows may reuse it immediately.
	s.pool = append(s.pool, f)
	if cb != nil {
		cb(s.now)
	}
}

func (s *Sim) dispatch(e event) {
	switch e.kind {
	case evtFn:
		e.fn()
	case evtDrain:
		s.drainCompletions()
	case evtFinish:
		s.finish(e.flow)
	}
}

// Run executes events until the queue is empty or the time limit is
// passed (limit <= 0 means no limit). Returns the final time.
func (s *Sim) Run(limit float64) float64 {
	for {
		s.flushRates()
		if len(s.events) == 0 {
			break
		}
		if limit > 0 && s.events[0].at > limit {
			s.advanceFlows(limit - s.now)
			s.now = limit
			break
		}
		e := s.popEvent()
		s.advanceFlows(e.at - s.now)
		s.now = e.at
		s.dispatch(e)
	}
	return s.now
}

// ActiveFlows returns the number of in-flight flows.
func (s *Sim) ActiveFlows() int { return len(s.active) }
