package serve

import (
	"encoding/json"
	"fmt"

	"topoopt"
	"topoopt/internal/wal"
)

// WAL record kinds: the four cacheable result shapes, plus the same
// names reused to tag journaled async jobs (a "plan" job record carries
// a PlanRequest, a "fleet" job record a FleetSpec, a "sweep" job record
// a sweepJournal). Kinds namespace fingerprints inside the store,
// mirroring the kind tags already mixed into compare, fleet and sweep
// fingerprints, and double as the Job envelope's Kind tag.
const (
	kindPlan    = "plan"
	kindCompare = "compare"
	kindFleet   = "fleet"
	kindSweep   = "sweep"
)

// Store is the durable plan store: a typed adapter over internal/wal
// that the Service uses to persist every completed result, journal
// queued async jobs, warm its LRU on boot, and compact on clean
// shutdown. Results are stored as their canonical JSON — plans,
// compare results and fleet results are all byte-stable under
// Marshal → Unmarshal → Marshal, which is what makes a restart-warm
// cache hit byte-identical to the pre-crash response.
type Store struct {
	wal *wal.Store
}

// OpenStore opens (creating if needed) the durable plan store in dir,
// replaying the snapshot and write-ahead log and truncating any torn
// tail left by a crash. Options (e.g. wal.WithSync for power-loss
// durability) pass through to the underlying log.
func OpenStore(dir string, opts ...wal.Option) (*Store, error) {
	w, err := wal.Open(dir, opts...)
	if err != nil {
		return nil, err
	}
	return &Store{wal: w}, nil
}

// Len reports the number of persisted results.
func (st *Store) Len() int { return st.wal.Len() }

// encodeResult maps a cached result to its WAL kind and canonical JSON.
func encodeResult(res any) (kind string, payload []byte, err error) {
	switch v := res.(type) {
	case *topoopt.Plan:
		kind = kindPlan
		payload, err = json.Marshal(v)
	case []topoopt.CompareResult:
		kind = kindCompare
		payload, err = json.Marshal(v)
	case *topoopt.FleetResult:
		kind = kindFleet
		payload, err = json.Marshal(v)
	case *topoopt.FleetSweepResult:
		kind = kindSweep
		payload, err = json.Marshal(v)
	default:
		err = fmt.Errorf("serve: unstorable result type %T", res)
	}
	return kind, payload, err
}

// storedPlan is the durable form of a plan record: the plan plus the
// canonical request that produced it, so a restart rebuilds the
// plan-similarity index (not just the exact-fingerprint LRU) from the
// WAL and near-miss requests warm-start across daemon restarts. Request
// is optional: records written before the index existed are bare Plan
// JSON, and decodeStored falls back to that shape.
type storedPlan struct {
	Request *PlanRequest  `json:"request,omitempty"`
	Plan    *topoopt.Plan `json:"plan"`
}

// decodeStored reverses persist for OpPut records: the cache value plus,
// for plan records that carry one, the canonical request to re-index.
func decodeStored(kind string, payload []byte) (any, *PlanRequest, error) {
	if kind == kindPlan {
		var sp storedPlan
		// A wrapped record has a non-nil "plan" member; legacy records are
		// the bare Plan JSON (whose fields don't collide with the wrapper,
		// so sp.Plan stays nil) and take the fallback path below.
		if err := json.Unmarshal(payload, &sp); err == nil && sp.Plan != nil {
			return sp.Plan, sp.Request, nil
		}
	}
	v, err := decodeResult(kind, payload)
	return v, nil, err
}

// decodeResult reverses encodeResult, reconstructing exactly the types
// the in-memory cache holds so a warmed entry is indistinguishable from
// a freshly computed one.
func decodeResult(kind string, payload []byte) (any, error) {
	switch kind {
	case kindPlan:
		var p topoopt.Plan
		if err := json.Unmarshal(payload, &p); err != nil {
			return nil, err
		}
		return &p, nil
	case kindCompare:
		var rs []topoopt.CompareResult
		if err := json.Unmarshal(payload, &rs); err != nil {
			return nil, err
		}
		return rs, nil
	case kindFleet:
		var fr topoopt.FleetResult
		if err := json.Unmarshal(payload, &fr); err != nil {
			return nil, err
		}
		return &fr, nil
	case kindSweep:
		var sr topoopt.FleetSweepResult
		if err := json.Unmarshal(payload, &sr); err != nil {
			return nil, err
		}
		return &sr, nil
	default:
		return nil, fmt.Errorf("serve: unknown stored kind %q", kind)
	}
}

// persist appends a completed result to the WAL. Persistence is
// best-effort relative to serving — a failed append is counted in
// metrics but never fails the request that computed the result.
func (s *Service) persist(fp string, res any) {
	if s.store == nil {
		return
	}
	kind, payload, err := encodeResult(res)
	if err == nil && kind == kindPlan {
		// Wrap plans with their canonical request (known for every plan the
		// service itself computed — it was indexed on completion) so the
		// similarity index rebuilds from the WAL on the next boot.
		if creq, ok := s.simRequest(fp); ok {
			if b, merr := json.Marshal(storedPlan{Request: &creq, Plan: res.(*topoopt.Plan)}); merr == nil {
				payload = b
			}
		}
	}
	if err == nil {
		err = s.store.wal.Append(wal.Record{Op: wal.OpPut, Kind: kind, Fp: fp, Payload: payload})
	}
	if err != nil {
		s.met.storeError()
	}
}

// journalJob records a queued async job so a restart can re-enqueue it;
// journalJobDone clears the journal entry once the job reaches a
// terminal state (done, failed or cancelled).
func (s *Service) journalJob(kind, fp string, payload []byte) {
	if s.store == nil {
		return
	}
	if err := s.store.wal.Append(wal.Record{Op: wal.OpJob, Kind: kind, Fp: fp, Payload: payload}); err != nil {
		s.met.storeError()
	}
}

func (s *Service) journalJobDone(kind, fp string) {
	if s.store == nil {
		return
	}
	if err := s.store.wal.Append(wal.Record{Op: wal.OpJobDone, Kind: kind, Fp: fp}); err != nil {
		s.met.storeError()
	}
}

// clearStaleJournal clears the journal entry, if any, of a job that
// resolved straight from the cache. Ordinary submissions hitting a warm
// cache were never journaled, so this appends nothing for them.
func (s *Service) clearStaleJournal(kind, fp string) {
	if s.store == nil || !s.store.wal.HasJob(kind, fp) {
		return
	}
	s.journalJobDone(kind, fp)
}

// warmFromStore replays the durable store into the service: the newest
// persisted results land in the LRU (so a restart serves them as
// byte-identical cache hits with zero re-search), and every journaled
// but unfinished async job is re-submitted through the normal admission
// path under a fresh job ID. Jobs whose results already landed complete
// instantly from the warmed cache, which also clears their journal
// entries. Runs during New, before the service accepts requests.
func (s *Service) warmFromStore() {
	recs := s.store.wal.Records() // puts in append order, then jobs
	// Decode puts from the newest back until the LRU is full: anything
	// older would be evicted as soon as it was inserted. Inserting the
	// kept ones oldest-first then leaves the cache's recency order and the
	// similarity index exactly as replaying every put would.
	type warmEntry struct {
		fp  string
		v   any
		req *PlanRequest
	}
	var kept []warmEntry // newest first
	for i := len(recs) - 1; i >= 0 && len(kept) < s.cfg.CacheEntries; i-- {
		r := recs[i]
		if r.Op != wal.OpPut {
			continue
		}
		v, req, err := decodeStored(r.Kind, r.Payload)
		if err != nil {
			s.met.storeError()
			continue
		}
		kept = append(kept, warmEntry{r.Fp, v, req})
	}
	s.mu.Lock()
	for i := len(kept) - 1; i >= 0; i-- {
		e := kept[i]
		s.cache.add(e.fp, e.v)
		if e.req != nil {
			// Restart-warm similarity: the replayed plan re-joins the
			// index, so near-miss requests warm-start across restarts.
			s.sim.add(e.fp, *e.req)
		}
	}
	s.warmed = len(kept)
	s.mu.Unlock()

	// Re-enqueue after warming so a journaled job whose put record
	// survived resolves as an instant cache hit instead of a re-run.
	// Best effort: a job the queue cannot re-admit stays journaled for
	// the next restart.
	for _, r := range recs {
		if r.Op != wal.OpJob {
			continue
		}
		switch r.Kind {
		case kindPlan:
			var req PlanRequest
			if json.Unmarshal(r.Payload, &req) == nil {
				s.SubmitJob(req)
			}
		case kindFleet:
			var spec topoopt.FleetSpec
			if json.Unmarshal(r.Payload, &spec) == nil {
				s.SubmitFleet(spec)
			}
		case kindSweep:
			var sj sweepJournal
			if json.Unmarshal(r.Payload, &sj) == nil {
				s.SubmitSweep(sj.Spec, sj.Replicas)
			}
		}
	}
}
