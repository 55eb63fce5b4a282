package core

import (
	"sync"
	"sync/atomic"
)

// This file implements what a relation keeps per state. Every verdict and
// every rendered whole-relation answer is a function of the relation state
// (the flat-equivalence of §3) and of its key, so each is kept in one
// table the first time it is derived and served from there until the state
// changes (cf. Litwin's stored/inherited relations: inherited values are
// recomputed on every read unless kept).
//
// Correctness is enforced by stamping, not eviction: the table records the
// state it holds — the relation's mutation epoch and the sum of the
// attribute hierarchies' mutation generations — and a lookup under another
// stamp empties it first, so a read after a mutation can never observe a
// stale entry. The preemption mode is part of the state: a mode switch
// bumps the epoch, so verdicts are one kind whatever the mode. Size is
// bounded by a two-generation (current / previous) rotation by bytes:
// inserts fill the current generation; one that would take it past the
// budget rotates, and the previous generation is discarded. A hit in the
// previous generation moves the entry into the current one, so whatever is
// read at least once per generation survives any flood of other entries.
//
// The same stamp fences the extension and binding order (memo below).

// cacheBudget is the bytes each of a relation table's two generations
// charges before it rotates. At the benchmark's full-scale fixture a
// verdict charges 190–290 bytes and all of the analytic workload's answers
// to one relation 115 KB, so a generation keeps 2,048 verdicts and every
// such answer with room to spare.
const cacheBudget = 1 << 20

// Per-entry charges beside the key's and answer's bytes: a map slot with
// its key and value, and each tuple of a verdict's Binders and Applicable
// slices. Together they come within 5% of the live heap a kept verdict
// measures.
const (
	entryBytes = 176
	tupleBytes = 32
)

// The kinds of kept entries, which index CacheStats: verdicts and
// rendered answers.
const (
	Verdicts = iota
	Answers
	numKinds
)

// cacheStamp identifies the relation state an entry was derived from.
type cacheStamp struct {
	epoch uint64 // relation mutation counter
	hgen  uint64 // sum of attribute-hierarchy generations
}

// cacheKey names an entry: its kind and the item or answer key.
type cacheKey struct {
	kind int
	key  string
}

// entry is one kept value: a verdict with its error, or an answer.
type entry struct {
	v      Verdict
	err    error
	answer string
}

// cost is what an entry charges to its generation's budget.
func (e entry) cost(k cacheKey) int {
	return entryBytes + len(k.key) + len(e.answer) + tupleBytes*(len(e.v.Binders)+len(e.v.Applicable))
}

// table is a relation's bounded, synchronized store of what one state
// determines.
//
// flushed tracks how much of hits/misses has already been pushed to the
// process-wide obs counters; lookups flush the difference every
// cacheFlushBlock lookups of a kind, so a hit never touches a global
// atomic.
type table struct {
	mu            sync.Mutex
	stamp         cacheStamp
	budget        int // bytes per generation
	cur, prev     map[cacheKey]entry
	bytes         int // charged to cur
	hits, misses  [numKinds]uint64
	flushedHits   [numKinds]uint64
	flushedMisses [numKinds]uint64
}

// get returns the entry kept under k at state s, emptying the table first
// if it holds another state.
func (c *table) get(k cacheKey, s cacheStamp) (entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stamp != s {
		c.emptyLocked()
		c.stamp = s
	}
	e, ok := c.cur[k]
	if !ok {
		if e, ok = c.prev[k]; ok {
			c.storeLocked(k, e) // promote so the next rotation does not drop it
		}
	}
	if ok {
		c.hits[k.kind]++
	} else {
		c.misses[k.kind]++
	}
	if (c.hits[k.kind]+c.misses[k.kind])&(cacheFlushBlock-1) == 0 {
		c.flushLocked()
	}
	return e, ok
}

// put keeps e under k if the table still holds state s and e fits the
// budget; a larger entry is served by its caller but never kept.
func (c *table) put(k cacheKey, e entry, s cacheStamp) {
	c.mu.Lock()
	if c.stamp == s && e.cost(k) <= c.budget {
		c.storeLocked(k, e)
	}
	c.mu.Unlock()
}

func (c *table) storeLocked(k cacheKey, e entry) {
	if old, ok := c.cur[k]; ok {
		c.bytes -= old.cost(k)
	}
	n := e.cost(k)
	if c.bytes+n > c.budget {
		// Rotation discards the previous generation wholesale: the
		// table's only form of eviction.
		metricCacheEvictions.Add(uint64(len(c.prev)))
		c.prev, c.cur, c.bytes = c.cur, nil, 0
	}
	if c.cur == nil {
		c.cur = map[cacheKey]entry{}
	}
	c.cur[k] = e
	c.bytes += n
}

// flushLocked pushes the counts not yet pushed to the process-wide series:
// verdicts' to hrdb_core_cache_*, answers' to hrdb_core_answer_*.
func (c *table) flushLocked() {
	for k := range c.hits {
		hits, misses := metricCacheHits, metricCacheMisses
		if k == Answers {
			hits, misses = metricAnswerHits, metricAnswerMisses
		}
		hits.Add(c.hits[k] - c.flushedHits[k])
		misses.Add(c.misses[k] - c.flushedMisses[k])
	}
	c.flushedHits, c.flushedMisses = c.hits, c.misses
}

// reset discards every entry (the counters are kept).
func (c *table) reset() {
	c.mu.Lock()
	c.emptyLocked()
	c.mu.Unlock()
}

// emptyLocked discards every entry. A current generation of no more than
// one map group (8 entries) is cleared and kept: a write empties the table
// and its check then keeps a few verdicts, which should not cost a new map
// per write.
func (c *table) emptyLocked() {
	if len(c.cur) > 8 {
		c.cur = nil
	}
	clear(c.cur)
	c.prev, c.bytes = nil, 0
}

// CacheStats returns the relation table's cumulative hits and misses and
// how many distinct entries it keeps, each indexed by kind: Verdicts or
// Answers. Reading them also flushes the pending counts to the
// process-wide series, so a snapshot of those taken right after is exact.
func (r *Relation) CacheStats() (hits, misses [numKinds]uint64, kept [numKinds]int) {
	c := &r.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	for k := range c.cur {
		kept[k.kind]++
	}
	for k := range c.prev {
		if _, ok := c.cur[k]; !ok { // a promoted entry is in both
			kept[k.kind]++
		}
	}
	return c.hits, c.misses, kept
}

// Answer returns the answer kept under key at r's current state, else
// derive's, kept when the cache is on, derive succeeds and it fits the
// budget. key must name all the answer depends on besides r's state, and
// Answer must run where r cannot change: under the catalog's read lock.
func (r *Relation) Answer(key string, derive func() (string, error)) (string, error) {
	if r.cacheOff {
		return derive()
	}
	k, s := cacheKey{kind: Answers, key: key}, r.stamp() // taken before derive reads r
	if e, ok := r.cache.get(k, s); ok {
		return e.answer, nil
	}
	v, err := derive()
	if err == nil {
		r.cache.put(k, entry{answer: v}, s)
	}
	return v, err
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
	s := r.stamp()
	if p := m.Load(); p != nil && p.stamp == s {
		return p.v, nil
	}
	v, err := derive()
	if err == nil {
		m.Store(&memo[T]{stamp: s, v: v})
	}
	return v, err
}

// dropMemos frees what the relation keeps: a written relation keeps no
// state it has left.
func (r *Relation) dropMemos() {
	r.ext.Store(nil)
	r.order.Store(nil)
	r.cache.reset()
}
