package serve

import (
	"container/list"
	"encoding/json"
	"sync"
)

// result is one cached or in-flight result in both of its forms: the
// typed value Go callers, warm starts and async jobs use, and the
// canonical JSON bytes that responses and the WAL carry. A result starts
// from one form — a value computed in-process, or the bytes of a record
// warmed from the store — and derives the other at most once, on first
// need. Callers derive outside Service.mu: a 128-server plan takes tens
// of milliseconds to encode or decode.
type result struct {
	kind   string // WAL kind: kindPlan, kindCompare, kindFleet or kindSweep
	stored bool   // built from bytes; the value is the derived form
	once   sync.Once
	v      any
	b      []byte
	err    error // failure deriving the other form, set by once
}

// computed wraps a value computed in-process.
func computed(kind string, v any) *result { return &result{kind: kind, v: v} }

// storedBytes wraps the canonical bytes of a stored record.
func storedBytes(kind string, b []byte) *result { return &result{kind: kind, stored: true, b: b} }

// value returns the typed result, decoding stored bytes on first call.
func (r *result) value() (any, error) {
	if !r.stored {
		return r.v, nil
	}
	r.once.Do(func() { r.v, r.err = decodeResult(r.kind, r.b) })
	return r.v, r.err
}

// bytes returns the canonical JSON, encoding a computed value on first
// call. The bytes are shared: callers must not mutate them.
func (r *result) bytes() ([]byte, error) {
	if r.stored {
		return r.b, nil
	}
	r.once.Do(func() { r.b, r.err = json.Marshal(r.v) })
	return r.b, r.err
}

// planCache is a plain LRU keyed by request fingerprint. It is not
// concurrency-safe; the Service guards it with its mutex, which also
// makes the lookup-then-coalesce sequence atomic.
type planCache struct {
	max int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
	// onEvict, when set, is called with each key the LRU bound pushes out
	// (not on overwrites). The similarity index hooks it so index entries
	// can never outlive the plan they point at. Runs under the same lock
	// as every other cache call (the Service mutex).
	onEvict func(key string)
}

type cacheEntry struct {
	key string
	val *result
}

func newPlanCache(max int) *planCache {
	return &planCache{max: max, ll: list.New(), m: make(map[string]*list.Element)}
}

func (c *planCache) get(key string) (*result, bool) {
	el, ok := c.m[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

func (c *planCache) add(key string, val *result) {
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).val = val
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		k := oldest.Value.(*cacheEntry).key
		delete(c.m, k)
		if c.onEvict != nil {
			c.onEvict(k)
		}
	}
}

func (c *planCache) len() int { return c.ll.Len() }
