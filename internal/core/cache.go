package core

import (
	"sync"
	"sync/atomic"
)

// This file implements the relation's verdict memo cache. Evaluation of an
// item against an unchanged relation is deterministic, so the result can be
// memoized; the cache is the read-path accelerator the inherited-value model
// needs (cf. Litwin's stored/inherited relations: inherited values are
// recomputed on every read unless cached).
//
// Correctness is enforced by stamping, not eviction: every entry records the
// relation's mutation epoch, the sum of the attribute hierarchies' mutation
// generations, and the preemption mode it was computed under. A lookup whose
// stamp differs is a miss, so a post-mutation Evaluate can never observe a
// stale verdict. Capacity is bounded with a two-generation (current /
// previous) rotation: inserts fill the current half; when it reaches half
// the capacity the generations rotate and the oldest half is discarded.

// The same stamp fences the extension and binding order (memo below) and the
// rendered answers (answerTable).

// defaultCacheCap bounds the number of memoized verdicts per relation.
const defaultCacheCap = 4096

// cacheStamp identifies the relation state a verdict was computed against.
type cacheStamp struct {
	epoch uint64     // relation mutation counter
	hgen  uint64     // sum of attribute-hierarchy generations
	mode  Preemption // preemption semantics in force
}

// cacheEntry is one memoized evaluation.
type cacheEntry struct {
	stamp cacheStamp
	v     Verdict
	err   error
}

// verdictCache is a bounded, synchronized memo table keyed by item key.
//
// flushedHits/flushedMisses track how much of hits/misses has already been
// pushed to the process-wide obs counters; get flushes the difference every
// cacheFlushBlock lookups so the hit path never touches a global atomic.
type verdictCache struct {
	mu           sync.Mutex
	cap          int
	cur, prev    map[string]cacheEntry
	hits, misses uint64

	flushedHits, flushedMisses uint64
}

// newVerdictCache creates a cache holding at most capacity entries.
func newVerdictCache(capacity int) *verdictCache {
	if capacity < 2 {
		capacity = 2
	}
	return &verdictCache{cap: capacity, cur: make(map[string]cacheEntry)}
}

// get returns the entry for key if present with a matching stamp.
func (c *verdictCache) get(key string, stamp cacheStamp) (cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.cur[key]; ok && e.stamp == stamp {
		c.hits++
		c.maybeFlushLocked()
		return e, true
	}
	if e, ok := c.prev[key]; ok && e.stamp == stamp {
		c.storeLocked(key, e) // promote so a rotation does not drop it
		c.hits++
		c.maybeFlushLocked()
		return e, true
	}
	c.misses++
	c.maybeFlushLocked()
	return cacheEntry{}, false
}

// maybeFlushLocked pushes the per-cache hit/miss counters to the global obs
// counters once per cacheFlushBlock lookups. Called with c.mu held; the
// block check is two adds and a mask, so the amortized cost per lookup is a
// fraction of a nanosecond.
func (c *verdictCache) maybeFlushLocked() {
	if (c.hits+c.misses)&(cacheFlushBlock-1) != 0 {
		return
	}
	c.flushLocked()
}

func (c *verdictCache) flushLocked() {
	if d := c.hits - c.flushedHits; d > 0 {
		metricCacheHits.Add(d)
		c.flushedHits = c.hits
	}
	if d := c.misses - c.flushedMisses; d > 0 {
		metricCacheMisses.Add(d)
		c.flushedMisses = c.misses
	}
}

// put memoizes an entry, rotating generations when the current one is full.
func (c *verdictCache) put(key string, e cacheEntry) {
	c.mu.Lock()
	c.storeLocked(key, e)
	c.mu.Unlock()
}

func (c *verdictCache) storeLocked(key string, e cacheEntry) {
	if len(c.cur) >= c.cap/2 {
		if _, ok := c.cur[key]; !ok {
			// Rotation discards the previous generation wholesale; those
			// entries are the cache's only form of eviction.
			if n := len(c.prev); n > 0 {
				metricCacheEvictions.Add(uint64(n))
			}
			c.prev = c.cur
			c.cur = make(map[string]cacheEntry, c.cap/2)
		}
	}
	c.cur[key] = e
}

// reset discards every entry (the counters are kept).
func (c *verdictCache) reset() {
	c.mu.Lock()
	c.cur = make(map[string]cacheEntry)
	c.prev = nil
	c.mu.Unlock()
}

// stats returns the hit/miss counters. Reading stats also flushes any
// pending block to the global obs counters, so a snapshot taken right after
// is exact.
func (c *verdictCache) stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	return c.hits, c.misses
}

// size returns the number of distinct resident keys (for tests of
// boundedness). A key promoted out of the previous generation is resident
// in both maps but must count once.
func (c *verdictCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.cur)
	for k := range c.prev {
		if _, ok := c.cur[k]; !ok {
			n++
		}
	}
	return n
}

// memo is a value derived from a whole relation state, with its stamp.
type memo[T any] struct {
	stamp cacheStamp
	v     T
}

// memoized returns m's value if it was derived from r's current state, else
// derive's, kept in m when the cache is on and derive succeeds. Concurrent
// reads may both derive and store: they store equal values.
func memoized[T any](r *Relation, m *atomic.Pointer[memo[T]], derive func() (T, error)) (T, error) {
	if r.cacheOff {
		return derive()
	}
	s := r.stamp(r.mode)
	if p := m.Load(); p != nil && p.stamp == s {
		return p.v, nil
	}
	v, err := derive()
	if err == nil {
		m.Store(&memo[T]{stamp: s, v: v})
	}
	return v, err
}

// dropMemos frees the memos: a written relation keeps no state it has left.
func (r *Relation) dropMemos() {
	r.ext.Store(nil)
	r.sorted.Store(nil)
	r.order.Store(nil)
	r.answers.reset()
}

// answerBudget bounds a relation's kept answers: each of two generations
// holds up to this many bytes of keys and answers; a larger answer is served
// but never kept.
const answerBudget = 512 << 10

// answerTable keeps rendered whole-relation answers of one state (stamp) in
// two generations, rotated like verdictCache's but by bytes.
type answerTable struct {
	mu                                       sync.Mutex
	stamp                                    cacheStamp
	cur, prev                                map[string]string
	bytes                                    int // of cur's keys and answers
	hits, misses, flushedHits, flushedMisses uint64
}

// Answer returns the answer kept under key at r's current state, else
// derive's, kept when the cache is on, derive succeeds and it fits the
// budget. key must name all the answer depends on besides r's state, and
// Answer must run where r cannot change: under the catalog's read lock.
func (r *Relation) Answer(key string, derive func() (string, error)) (string, error) {
	if r.cacheOff {
		return derive()
	}
	c, s := &r.answers, r.stamp(r.mode) // taken before derive reads r
	c.mu.Lock()
	v, ok := c.lookupLocked(key, s)
	c.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := derive()
	if err == nil && len(key)+len(v) <= answerBudget {
		c.mu.Lock()
		if c.stamp == s {
			c.storeLocked(key, v)
		}
		c.mu.Unlock()
	}
	return v, err
}

// AnswerStats returns the answer table's cumulative hit and miss counters
// and how many answers it holds.
func (r *Relation) AnswerStats() (hits, misses uint64, kept int) {
	c := &r.answers
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	kept = len(c.cur)
	for k := range c.prev {
		if _, ok := c.cur[k]; !ok {
			kept++
		}
	}
	return c.hits, c.misses, kept
}

// lookupLocked empties the table if it holds another state than s, then
// finds key, promoting it out of the previous generation so that the next
// rotation does not drop it.
func (c *answerTable) lookupLocked(key string, s cacheStamp) (string, bool) {
	if c.stamp != s {
		c.cur, c.prev, c.bytes, c.stamp = nil, nil, 0, s
	}
	v, ok := c.cur[key]
	if !ok {
		if v, ok = c.prev[key]; ok {
			c.storeLocked(key, v)
		}
	}
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	if (c.hits+c.misses)&(cacheFlushBlock-1) == 0 {
		c.flushLocked()
	}
	return v, ok
}

func (c *answerTable) flushLocked() {
	metricAnswerHits.Add(c.hits - c.flushedHits)
	metricAnswerMisses.Add(c.misses - c.flushedMisses)
	c.flushedHits, c.flushedMisses = c.hits, c.misses
}

func (c *answerTable) storeLocked(key, v string) {
	if old, ok := c.cur[key]; ok {
		c.bytes -= len(key) + len(old)
	}
	if c.bytes+len(key)+len(v) > answerBudget {
		c.prev, c.cur, c.bytes = c.cur, nil, 0
	}
	if c.cur == nil {
		c.cur = map[string]string{}
	}
	c.cur[key] = v
	c.bytes += len(key) + len(v)
}

// reset discards every answer (the counters are kept).
func (c *answerTable) reset() {
	c.mu.Lock()
	c.cur, c.prev, c.bytes = nil, nil, 0
	c.mu.Unlock()
}
