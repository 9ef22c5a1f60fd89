// Package wal implements the durable plan store behind the serving
// layer: an append-only write-ahead log plus a compacted snapshot, both
// holding (op, kind, fingerprint, payload) records framed with a length
// and a CRC so a torn or corrupt tail truncates cleanly on replay
// instead of poisoning the store.
//
// Layout inside a store directory:
//
//	snapshot — the compacted live record set, replaced atomically
//	           (write to snapshot.tmp, fsync, rename)
//	wal.log  — records appended since the last compaction
//
// Replay order is snapshot first, then the log; within each file,
// records apply in append order. OpPut records upsert a
// (kind, fingerprint) → payload entry (last write wins, first-write
// ordering preserved), OpJob records journal a queued async job keyed
// the same way, and OpJobDone clears one. Replay stops at the first
// record that fails validation — a CRC mismatch, an impossible length,
// or a torn header or body — keeping everything before it; for the log
// the file is additionally truncated to the last good offset so later
// appends start from a clean record boundary.
//
// Each append is a single buffered write of header+body, so a process
// crash (kill -9) can never interleave two records; an OS crash can
// lose the unsynced page-cache tail but the CRC framing turns that into
// a clean truncation, never a corrupt store. Deployments that need
// acknowledged appends to survive power loss too can open the store
// with WithSync, which fsyncs the log on every Append at the cost of
// one disk flush per acknowledged write. Compaction always fsyncs the
// snapshot before the rename, so the atomically-replaced snapshot is
// durable even across power loss in either mode.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// File names inside a store directory, exported so tests (and the chaos
// harness) can inject torn or corrupt tails at the right path.
const (
	SnapshotName = "snapshot"
	LogName      = "wal.log"
)

// Record operations.
const (
	OpPut     = "put"     // upsert a completed-result entry
	OpJob     = "job"     // journal a queued async job
	OpJobDone = "jobdone" // clear a journaled job (finished, failed or cancelled)
)

// Record is one WAL entry. Kind namespaces fingerprints (plan, compare
// and fleet results share one store without aliasing); Payload carries
// the canonical JSON of the result (OpPut) or of the request to re-run
// (OpJob), and is empty for OpJobDone.
type Record struct {
	Op      string          `json:"op"`
	Kind    string          `json:"kind"`
	Fp      string          `json:"fp"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("wal: store closed")

// recHeaderLen is the fixed frame header: little-endian uint32 body
// length followed by the IEEE CRC32 of the body.
const recHeaderLen = 8

// maxRecordLen bounds a single record body. Results are at most a few
// MB of JSON; anything claiming more is a corrupt length field, and
// bounding it keeps replay from allocating garbage-sized buffers.
const maxRecordLen = 64 << 20

// Store is a durable record store. All methods are safe for concurrent
// use. The live record set (the result of replaying every record) is
// kept in memory for Records and Compact; payloads are shared, not
// copied, so callers must not mutate them.
type Store struct {
	dir  string
	sync bool // fsync the log on every Append (power-loss durability)

	mu     sync.Mutex
	log    *os.File
	closed bool

	puts   map[string]Record // key → latest OpPut record
	putSeq []string          // first-append order of put keys
	jobs   map[string]Record // key → outstanding OpJob record
	jobSeq []string          // first-append order of job keys
}

func key(kind, fp string) string { return kind + "\x00" + fp }

// Option configures a Store at Open time.
type Option func(*Store)

// WithSync makes every Append fsync the log before returning, extending
// the durability of acknowledged writes from process crashes to power
// loss. The default (no fsync on append) relies on the OS page cache;
// a lost unsynced tail still replays as a clean truncation either way.
func WithSync() Option { return func(s *Store) { s.sync = true } }

// Open opens (creating if needed) the store in dir, replays the
// snapshot and then the log, and truncates the log at the first torn or
// corrupt record so subsequent appends start from a clean boundary.
func Open(dir string, opts ...Option) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	s := &Store{
		dir:  dir,
		puts: make(map[string]Record),
		jobs: make(map[string]Record),
	}
	for _, opt := range opts {
		opt(s)
	}
	if snap, err := os.ReadFile(filepath.Join(dir, SnapshotName)); err == nil {
		recs, _ := decodeAll(snap)
		for _, r := range recs {
			s.apply(r)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("wal: reading snapshot: %w", err)
	}

	logPath := filepath.Join(dir, LogName)
	raw, err := os.ReadFile(logPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("wal: reading log: %w", err)
	}
	recs, good := decodeAll(raw)
	for _, r := range recs {
		s.apply(r)
	}
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: opening log: %w", err)
	}
	// Drop the torn/corrupt tail (no-op on a clean log) and position at
	// the end of the last good record for appends.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: truncating torn log tail: %w", err)
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: %w", err)
	}
	s.log = f
	return s, nil
}

// decodeAll parses framed records from b, stopping at the first torn or
// invalid record. It returns the valid prefix and the byte offset just
// past the last good record.
func decodeAll(b []byte) ([]Record, int64) {
	var (
		recs []Record
		off  int64
	)
	for {
		rest := b[off:]
		if len(rest) == 0 {
			return recs, off // clean end
		}
		if len(rest) < recHeaderLen {
			return recs, off // torn header
		}
		n := binary.LittleEndian.Uint32(rest[0:4])
		crc := binary.LittleEndian.Uint32(rest[4:8])
		if n == 0 || n > maxRecordLen || int(n) > len(rest)-recHeaderLen {
			return recs, off // impossible length or torn body
		}
		body := rest[recHeaderLen : recHeaderLen+int(n)]
		if crc32.ChecksumIEEE(body) != crc {
			return recs, off // corrupt body
		}
		var r Record
		if json.Unmarshal(body, &r) != nil {
			return recs, off // CRC matched but the body is not a record
		}
		recs = append(recs, r)
		off += recHeaderLen + int64(n)
	}
}

// apply folds one record into the live state. Unknown ops are ignored
// (a newer writer's records must not break an older reader's replay).
func (s *Store) apply(r Record) {
	k := key(r.Kind, r.Fp)
	switch r.Op {
	case OpPut:
		if _, ok := s.puts[k]; !ok {
			s.putSeq = append(s.putSeq, k)
		}
		s.puts[k] = r
	case OpJob:
		if _, ok := s.jobs[k]; !ok {
			s.jobSeq = append(s.jobSeq, k)
		}
		s.jobs[k] = r
	case OpJobDone:
		delete(s.jobs, k)
	}
}

// Append durably appends r to the log and folds it into the live state.
// The header and body are written in a single Write call, so a crashed
// append leaves at most one torn record at the tail, which the next
// Open truncates away.
func (s *Store) Append(r Record) error {
	switch r.Op {
	case OpPut, OpJob, OpJobDone:
	default:
		return fmt.Errorf("wal: unknown op %q", r.Op)
	}
	buf, err := frame(r)
	if err != nil {
		return fmt.Errorf("wal: encoding record: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, err := s.log.Write(buf); err != nil {
		return fmt.Errorf("wal: appending: %w", err)
	}
	if s.sync {
		if err := s.log.Sync(); err != nil {
			return fmt.Errorf("wal: syncing append: %w", err)
		}
	}
	s.apply(r)
	return nil
}

// frame encodes r as one log or snapshot frame: the header (body
// length, then the body's CRC) followed by the JSON body.
func frame(r Record) ([]byte, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, recHeaderLen+len(body))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(body))
	copy(buf[recHeaderLen:], body)
	return buf, nil
}

// Records returns the live record set in replay-deterministic order:
// puts in first-append order, then outstanding jobs in first-append
// order. The returned slice is a fresh copy; the Payloads are shared.
func (s *Store) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live()
}

// live is Records for callers that hold s.mu.
func (s *Store) live() []Record {
	out := make([]Record, 0, len(s.puts)+len(s.jobs))
	for _, k := range s.putSeq {
		if r, ok := s.puts[k]; ok {
			out = append(out, r)
		}
	}
	for _, k := range s.jobSeq {
		if r, ok := s.jobs[k]; ok {
			out = append(out, r)
		}
	}
	return out
}

// Len reports the number of live put entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.puts)
}

// HasJob reports whether (kind, fp) has an outstanding journaled job —
// an OpJob record not yet cleared by an OpJobDone.
func (s *Store) HasJob(kind, fp string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.jobs[key(kind, fp)]
	return ok
}

// Compact writes the live record set to a fresh snapshot (atomically:
// tmp file, fsync, rename) and truncates the log. After a compaction,
// replay cost is proportional to the live set, not to append history.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	tmp := filepath.Join(s.dir, SnapshotName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: compacting: %w", err)
	}
	for _, r := range s.live() {
		buf, err := frame(r)
		if err == nil {
			_, err = f.Write(buf)
		}
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("wal: compacting: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: compacting: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: compacting: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, SnapshotName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: compacting: %w", err)
	}
	syncDir(s.dir)
	if err := s.log.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncating log after compaction: %w", err)
	}
	if _, err := s.log.Seek(0, 0); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed snapshot survives power
// loss. Best effort: some filesystems reject directory fsync, and the
// rename itself is already atomic for process crashes.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Close flushes and closes the log. Further operations fail with
// ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.log.Sync(); err != nil {
		s.log.Close()
		return fmt.Errorf("wal: closing: %w", err)
	}
	return s.log.Close()
}
