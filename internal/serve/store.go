package serve

import (
	"bytes"
	"encoding/json"
	"errors"
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
// shutdown. Results are stored as their canonical JSON, and a
// restart-warm cache hit writes those bytes verbatim, which is what makes
// it byte-identical to the pre-crash response. Every result type is
// byte-stable under Marshal → Unmarshal → Marshal, so a warmed result
// decoded for a Go caller is the value that was stored.
type Store struct {
	wal *wal.Store
	// stall, when set, runs before every append the Service makes. Tests
	// block in it to hold a record off the log and observe what the
	// Service has (not yet) published meanwhile.
	stall func(wal.Record)
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

// append writes one record to the log.
func (st *Store) append(r wal.Record) error {
	if st.stall != nil {
		st.stall(r)
	}
	return st.wal.Append(r)
}

// Stored plan records wrap the plan with its canonical request:
// {"request":<request>,"plan":<plan>}, byte for byte what json.Marshal
// writes for a struct of those two fields. The request lets a restart
// rebuild the plan-similarity index (not just the exact-fingerprint LRU)
// from the WAL, so near-miss requests warm-start across daemon restarts.
// Records written before the index existed, or for a plan whose request
// was not indexed, are the bare plan.
var (
	storedRequestKey = []byte(`{"request":`)
	storedPlanKey    = []byte(`,"plan":`)
)

// wrapStoredPlan builds a stored plan record from the canonical request
// and the plan's canonical bytes, without encoding the plan again.
func wrapStoredPlan(creq PlanRequest, plan []byte) ([]byte, error) {
	req, err := json.Marshal(creq)
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, len(storedRequestKey)+len(req)+len(storedPlanKey)+len(plan)+1)
	b = append(b, storedRequestKey...)
	b = append(b, req...)
	b = append(b, storedPlanKey...)
	b = append(b, plan...)
	return append(b, '}'), nil
}

// decodeStored reverses persist for OpPut records: the cache entry,
// holding the record's result bytes, plus, for plan records that carry
// one, the canonical request to re-index. Only the request is decoded.
// The plan is the wrapper's tail, located without scanning it: the WAL
// has already validated the whole payload as JSON, so only its shape is
// checked here, and the plan is decoded on its first typed use.
func decodeStored(kind string, payload []byte) (*result, *PlanRequest, error) {
	switch kind {
	case kindPlan:
	case kindCompare, kindFleet, kindSweep:
		return storedBytes(kind, payload), nil, nil
	default:
		return nil, nil, fmt.Errorf("serve: unknown stored kind %q", kind)
	}
	rest, wrapped := bytes.CutPrefix(payload, storedRequestKey)
	if !wrapped {
		if len(payload) == 0 || payload[0] != '{' {
			return nil, nil, errors.New("serve: stored plan is not a JSON object")
		}
		return storedBytes(kind, payload), nil, nil
	}
	dec := json.NewDecoder(bytes.NewReader(rest))
	var req PlanRequest
	if err := dec.Decode(&req); err != nil {
		return nil, nil, err
	}
	plan, ok := bytes.CutPrefix(rest[dec.InputOffset():], storedPlanKey)
	if ok {
		plan, ok = bytes.CutSuffix(plan, []byte("}"))
	}
	if !ok {
		return nil, nil, errors.New("serve: malformed stored plan record")
	}
	return storedBytes(kind, plan), &req, nil
}

// decodeResult decodes a result's canonical bytes into exactly the type
// a freshly computed result of that kind has, so a warmed entry is
// indistinguishable from a computed one.
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

// persist appends a completed result to the WAL as its canonical bytes,
// encoding the result if nothing has yet: the same bytes then answer
// every waiter and every later hit. Persistence is best-effort relative
// to serving — a failed append is counted in metrics but never fails the
// request that computed the result.
func (s *Service) persist(fp string, res *result) {
	if s.store == nil {
		return
	}
	payload, err := res.bytes()
	if err == nil && res.kind == kindPlan {
		// Wrap plans with their canonical request (known for every plan the
		// service itself computed — it was indexed on completion) so the
		// similarity index rebuilds from the WAL on the next boot.
		if creq, ok := s.simRequest(fp); ok {
			payload, err = wrapStoredPlan(creq, payload)
		}
	}
	if err == nil {
		err = s.store.append(wal.Record{Op: wal.OpPut, Kind: res.kind, Fp: fp, Payload: payload})
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
	if err := s.store.append(wal.Record{Op: wal.OpJob, Kind: kind, Fp: fp, Payload: payload}); err != nil {
		s.met.storeError()
	}
}

func (s *Service) journalJobDone(kind, fp string) {
	if s.store == nil {
		return
	}
	if err := s.store.append(wal.Record{Op: wal.OpJobDone, Kind: kind, Fp: fp}); err != nil {
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
	// Take puts from the newest back until the LRU is full: anything older
	// would be evicted as soon as it was inserted. Inserting the kept ones
	// oldest-first then leaves the cache's recency order and the
	// similarity index exactly as replaying every put would. Each entry
	// keeps its record's bytes; nothing is decoded but plan requests.
	type warmEntry struct {
		fp  string
		res *result
		req *PlanRequest
	}
	var kept []warmEntry // newest first
	for i := len(recs) - 1; i >= 0 && len(kept) < s.cfg.CacheEntries; i-- {
		r := recs[i]
		if r.Op != wal.OpPut {
			continue
		}
		res, req, err := decodeStored(r.Kind, r.Payload)
		if err != nil {
			s.met.storeError()
			continue
		}
		kept = append(kept, warmEntry{r.Fp, res, req})
	}
	s.mu.Lock()
	for i := len(kept) - 1; i >= 0; i-- {
		e := kept[i]
		s.cache.add(e.fp, e.res)
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
