// Package view maintains materialized views over HQL queries: each view's
// result set is computed once, then kept current by tailing the store's
// committed WAL stream and folding every committed batch into the stored
// rows — as an O(delta) patch when the defining query permits it, and by
// full recomputation when a mutation (hierarchy edit, whole-relation
// rewrite) invalidates incremental math. Views double as change feeds:
// every row change is journaled with its WAL position, and ServeFeed
// streams snapshot + deltas to subscribers with gap- and duplicate-free
// resumption, mirroring the replication stream contract.
package view

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"hrdb/internal/algebra"
	"hrdb/internal/catalog"
	"hrdb/internal/core"
	"hrdb/internal/storage"
	"hrdb/internal/wire"
)

// entry is one journaled row change: applying added/removed to the rows as
// of the previous entry yields the rows as of pos. Entries are diffs of the
// view's own row set, so replaying a contiguous suffix is exact.
type entry struct {
	pos            storage.Position
	added, removed []string // sorted
}

func (e entry) bytes() int {
	n := 0
	for _, r := range e.added {
		n += len(r)
	}
	for _, r := range e.removed {
		n += len(r)
	}
	return n + 32
}

// view is one maintained view (or internal relation mirror).
type view struct {
	name   string
	query  string // canonical defining query; "" for mirrors
	def    *def
	rows   map[string]struct{}
	sorted []string // cache of sorted rows; nil = dirty
	// rel, pre and counts are the maintained forms of the last evaluation
	// (evalResult); the folds patch them in place, so readers get pub — a
	// copy of rel made once per version, nil while rel has changed since.
	rel, pre, pub *core.Relation
	counts        map[string]int
	// domains the last successful evaluation depended on.
	domains map[string]bool

	pos     storage.Position // WAL position the rows reflect
	floor   storage.Position // journal covers (floor, pos]; resume below floor is stale
	journal []entry
	jbytes  int

	// Batches of source tuple operations folded in, found disjoint from a
	// SELECT's region (nothing to do), and answered by a full recompute.
	deltas, skipped, recomputes uint64
	lastErr                     string
}

func (v *view) sortedRows() []string {
	if v.sorted == nil {
		v.sorted = make([]string, 0, len(v.rows))
		for r := range v.rows {
			v.sorted = append(v.sorted, r)
		}
		sort.Strings(v.sorted)
	}
	return v.sorted
}

// setRows replaces the row set and returns the sorted diff old -> new.
func (v *view) setRows(rows []string) (added, removed []string) {
	next := make(map[string]struct{}, len(rows))
	for _, r := range rows {
		next[r] = struct{}{}
		if _, ok := v.rows[r]; !ok {
			added = append(added, r)
		}
	}
	for r := range v.rows {
		if _, ok := next[r]; !ok {
			removed = append(removed, r)
		}
	}
	v.rows = next
	v.sorted = nil
	sort.Strings(added)
	sort.Strings(removed)
	return added, removed
}

// patchRows applies a fold's row changes — the rows it dropped and the rows
// it derived, each without duplicates — and returns them net and sorted: a
// row dropped and derived again is no change.
func (v *view) patchRows(added, removed []string) (netAdded, netRemoved []string) {
	gone := make(map[string]bool, len(removed))
	for _, r := range removed {
		gone[r] = true
	}
	for _, r := range added {
		if gone[r] {
			delete(gone, r)
			continue
		}
		v.rows[r] = struct{}{}
		netAdded = append(netAdded, r)
	}
	for r := range gone {
		delete(v.rows, r)
		netRemoved = append(netRemoved, r)
	}
	if len(netAdded)+len(netRemoved) > 0 {
		v.sorted, v.pub = nil, nil // the rows moved, and rel with them
	}
	sort.Strings(netAdded)
	sort.Strings(netRemoved)
	return netAdded, netRemoved
}

// Options configures a Manager.
type Options struct {
	// Dir, when set, persists view definitions (and a clean-shutdown row
	// snapshot) to Dir/views.json so views survive restarts.
	Dir string
	// MaxDeltaAtoms caps how many atoms — the leaf products of its changed
	// items — one committed batch may force an extension or count view to
	// re-evaluate before falling back to a full recompute. Default 4096.
	MaxDeltaAtoms int
	// MaxJournalEntries / MaxJournalBytes bound each view's change
	// journal; resuming below the trimmed floor yields a stale error.
	// Defaults 1024 entries / 1 MiB.
	MaxJournalEntries int
	MaxJournalBytes   int
	// Heartbeat is the feed heartbeat interval. Default 500ms.
	Heartbeat time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxDeltaAtoms <= 0 {
		o.MaxDeltaAtoms = 4096
	}
	if o.MaxJournalEntries <= 0 {
		o.MaxJournalEntries = 1024
	}
	if o.MaxJournalBytes <= 0 {
		o.MaxJournalBytes = 1 << 20
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = 500 * time.Millisecond
	}
	return o
}

// Manager owns every materialized view of one Store: it registers and
// persists definitions, runs the single WAL-tailing maintenance goroutine,
// and serves subscription feeds. Safe for concurrent use.
type Manager struct {
	store *storage.Store
	opts  Options

	mu      sync.Mutex
	views   map[string]*view // user views, by name
	mirrors map[string]*view // relation feeds, by relation name
	pos     storage.Position // last applied batch position
	change  chan struct{}    // closed and replaced on every state change

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	closed bool
}

// ErrNotFound reports an unknown view.
var ErrNotFound = errors.New("view: not found")

// Open starts a Manager over the store, reloading any persisted view
// definitions (recomputing their contents unless a clean-shutdown snapshot
// at the store's exact current position can be adopted).
func Open(store *storage.Store, opts Options) (*Manager, error) {
	epoch, off := store.Position()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		store:   store,
		opts:    opts.withDefaults(),
		views:   map[string]*view{},
		mirrors: map[string]*view{},
		pos:     storage.Position{Epoch: epoch, Offset: off},
		change:  make(chan struct{}),
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	if err := m.load(); err != nil {
		cancel()
		return nil, err
	}
	go m.run()
	return m, nil
}

// Close stops maintenance and persists a row snapshot for fast adoption on
// the next Open. The store itself is not closed.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	m.cancel()
	<-m.done
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.saveLocked()
}

// bumpLocked wakes every waiter (feeds, Wait) after a state change.
func (m *Manager) bumpLocked() {
	close(m.change)
	m.change = make(chan struct{})
	total := int64(0)
	for _, v := range m.views {
		total += int64(len(v.rows))
	}
	metricRows.Set(total)
}

// run is the maintenance loop: one committed change at a time — a Tailer's,
// so a bracket arrives whole — folded into every view under the manager lock.
func (m *Manager) run() {
	defer close(m.done)
	m.mu.Lock()
	tl := storage.TailFrom(m.store, m.pos)
	m.mu.Unlock()
	for {
		c, err := tl.Next(m.ctx)
		if err != nil {
			if m.ctx.Err() != nil || errors.Is(err, storage.ErrStoreClosed) {
				return
			}
			// The tail position was retired (checkpoint) or unreadable:
			// restart from the store's current position and recompute
			// everything. The recompute diffs keep feeds exact.
			tl = m.resync()
			continue
		}
		start := time.Now()
		m.apply(c.Ops, c.Pos)
		metricLagNS.Observe(int64(time.Since(start)))
	}
}

// resync re-anchors the tail at the store's current position, recomputing
// every view there. Journals stay continuous: the recompute diff is one
// entry covering everything the lost WAL range did.
func (m *Manager) resync() *storage.Tailer {
	m.mu.Lock()
	defer m.mu.Unlock()
	tl := storage.NewTailer(m.store)
	m.pos = tl.Position()
	for _, v := range m.views {
		m.recomputeLocked(v, m.pos)
	}
	for _, v := range m.mirrors {
		m.recomputeLocked(v, m.pos)
	}
	m.bumpLocked()
	return tl
}

// apply folds one committed batch into every view.
func (m *Manager) apply(ops []catalog.TxOp, pos storage.Position) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, v := range m.views {
		m.applyViewLocked(v, ops, pos)
	}
	for _, v := range m.mirrors {
		m.applyViewLocked(v, ops, pos)
	}
	m.pos = pos
	m.bumpLocked()
}

// Maintenance actions, in increasing order of cost.
const (
	actNone = iota
	actDelta
	actRecompute
)

// classify decides what a committed batch demands of one view.
func (v *view) classify(ops []catalog.TxOp) int {
	act := actNone
	for _, op := range ops {
		switch op.Kind {
		case catalog.KindAssert, catalog.KindDeny, catalog.KindRetract:
			if op.Relation == v.def.source && act < actDelta {
				act = actDelta
			}
		case catalog.KindConsolidate, catalog.KindExplicate, catalog.KindSetMode,
			catalog.KindCreateRelation, catalog.KindDropRelation:
			if op.Relation == v.def.source {
				return actRecompute
			}
		case catalog.KindCreateHierarchy, catalog.KindAddClass, catalog.KindAddInstance,
			catalog.KindAddEdge, catalog.KindPrefer, catalog.KindDropNode:
			// A hierarchy mutation shifts subsumption under the view's
			// domains: incremental math is invalid, recompute. Mirrors are
			// exempt — stored tuples do not move with the hierarchy.
			if v.def.kind != kindMirror && v.domains[op.Relation] {
				return actRecompute
			}
		}
	}
	return act
}

func (m *Manager) applyViewLocked(v *view, ops []catalog.TxOp, pos storage.Position) {
	switch v.classify(ops) {
	case actNone:
		v.pos = pos
		return
	case actDelta:
		var added, removed []string
		n, ok := 1, true
		if v.def.kind == kindMirror {
			added, removed = v.deltaMirror(ops)
		} else {
			added, removed, n, ok = m.foldLocked(v, ops)
		}
		switch {
		case !ok:
			m.recomputeLocked(v, pos)
			return
		case n == 0:
			v.skipped++
		default:
			v.deltas++
			metricDeltas.Inc()
		}
		m.commitView(v, pos, added, removed)
	case actRecompute:
		m.recomputeLocked(v, pos)
	}
}

func (v *view) appendJournal(m *Manager, e entry) {
	v.journal = append(v.journal, e)
	v.jbytes += e.bytes()
	for len(v.journal) > m.opts.MaxJournalEntries || v.jbytes > m.opts.MaxJournalBytes {
		head := v.journal[0]
		v.floor = head.pos
		v.jbytes -= head.bytes()
		v.journal = v.journal[1:]
	}
}

func (m *Manager) commitView(v *view, pos storage.Position, added, removed []string) {
	if len(added) > 0 || len(removed) > 0 {
		v.appendJournal(m, entry{pos: pos, added: added, removed: removed})
	}
	v.pos = pos
}

// recomputeLocked re-evaluates a view from scratch at the current database
// state and journals the diff as one entry at pos. Evaluation failure (for
// example a dropped source relation) empties the view and records the
// error; a later batch that recreates the source revives it.
func (m *Manager) recomputeLocked(v *view, pos storage.Position) {
	v.recomputes++
	metricRecomputes.Inc()
	var res evalResult
	err := m.store.ReadLocked(func(db *catalog.Database) error {
		var e error
		res, e = eval(m.ctx, db, v.name, v.def)
		return e
	})
	if err != nil {
		v.lastErr = err.Error()
		res = evalResult{}
	} else {
		v.lastErr = ""
	}
	added, removed := v.setRows(res.rows)
	v.rel, v.pre, v.pub, v.counts = res.rel, res.pre, nil, res.counts
	if res.domains != nil {
		v.domains = res.domains
	}
	m.commitView(v, pos, added, removed)
}

// foldLocked folds a batch's tuple operations on the view's source into its
// rows. A mutation at δ changes app(y), hence any verdict, only for y ⊑ δ
// (docs/THEORY.md §4, view corollary): an extension or count view
// re-evaluates the atoms under the changed items, a select view re-derives
// the tuples at or under them. n is how many items it re-evaluated — zero
// when the batch cannot touch the view; ok=false asks for a recompute.
func (m *Manager) foldLocked(v *view, ops []catalog.TxOp) (added, removed []string, n int, ok bool) {
	if v.rel == nil || v.lastErr != "" {
		return nil, nil, 0, false
	}
	arity := v.rel.Schema().Arity()
	var changed []core.Item
	for _, op := range ops {
		if catalog.IsTupleOp(op.Kind) && op.Relation == v.def.source {
			if len(op.Values) != arity {
				return nil, nil, 0, false
			}
			changed = append(changed, core.Item(op.Values))
		}
	}
	// The apply lock keeps the live source still while the fold reads it.
	_ = m.store.ReadLocked(func(db *catalog.Database) error {
		src, err := db.Relation(v.def.source)
		if err != nil || src.Schema().Arity() != arity {
			return nil
		}
		if v.def.kind == kindSelect {
			added, removed, n, ok = m.foldSelect(src, v, changed)
		} else {
			added, removed, n, ok = m.foldAtoms(src, v, changed)
		}
		return nil
	})
	if !ok {
		return nil, nil, 0, false
	}
	if n > 0 {
		metricDeltaAtoms.Observe(int64(n))
	}
	added, removed = v.patchRows(added, removed)
	return added, removed, n, true
}

// foldSelect re-derives a select view's tuples at or under the changed items
// that overlap its region, then their consolidation; a batch disjoint from
// the region is a no-op. With preference edges "above" in the subsumption
// graph is no longer Applicable, so the whole region is re-selected instead.
func (m *Manager) foldSelect(src *core.Relation, v *view, changed []core.Item) (added, removed []string, n int, ok bool) {
	if v.pre == nil {
		return nil, nil, 0, false // adopted from a snapshot, which holds only the consolidated form
	}
	touched, err := algebra.Reselect(m.ctx, v.pre, src, changed, v.def.conds...)
	if err != nil || len(touched) == 0 {
		return nil, nil, 0, err == nil
	}
	for i := 0; i < src.Schema().Arity(); i++ {
		if len(src.Schema().Attr(i).Domain.Preferences()) > 0 {
			return nil, nil, 0, false
		}
	}
	rows := func() (out []string) {
		for _, it := range touched {
			if t, ok := v.rel.Lookup(it); ok {
				out = append(out, t.String())
			}
		}
		return out
	}
	removed = rows()
	if err := v.pre.Reconsolidate(v.rel, touched); err != nil {
		return nil, nil, 0, false
	}
	return rows(), removed, len(touched), true
}

// foldAtoms re-evaluates the atoms under the changed items against the
// source and patches the view's extension; a count view then moves the
// counters of the groups those atoms fall in. It asks for a recompute when the
// items' leaf products exceed MaxDeltaAtoms or evaluation fails.
func (m *Manager) foldAtoms(src *core.Relation, v *view, changed []core.Item) (added, removed []string, n int, ok bool) {
	schema := v.rel.Schema()
	var atoms []core.Item
	seen := map[string]bool{}
	for _, item := range changed {
		leaves := make([][]string, schema.Arity())
		total := 1
		for i := range leaves {
			leaves[i] = schema.Attr(i).Domain.Leaves(item[i])
			total *= len(leaves[i])
			if total == 0 || len(atoms)+total > m.opts.MaxDeltaAtoms {
				return nil, nil, 0, false
			}
		}
		for _, atom := range core.Product(leaves) {
			if k := atom.Key(); !seen[k] {
				seen[k] = true
				atoms = append(atoms, atom)
			}
		}
	}
	flags, err := src.HoldsBatch(m.ctx, atoms)
	if err != nil {
		return nil, nil, 0, false
	}
	var group func(core.Item) string
	if v.def.kind == kindCount {
		if group, err = v.def.grouper(src); err != nil {
			return nil, nil, 0, false
		}
	}
	before := map[string]int{} // a touched group's count as the batch found it
	for i, atom := range atoms {
		_, present := v.rel.Lookup(atom)
		if flags[i] == present {
			continue
		}
		step := 1
		if present {
			step = -1
			v.rel.Retract(atom)
		} else if err := v.rel.Insert(atom, true); err != nil {
			return nil, nil, 0, false
		}
		switch {
		case group != nil:
			g := group(atom)
			if _, ok := before[g]; !ok {
				before[g] = v.counts[g]
			}
			v.counts[g] += step
		case present:
			removed = append(removed, atom.String())
		default:
			added = append(added, atom.String())
		}
	}
	for g, was := range before {
		now := v.counts[g]
		if was > 0 || len(v.def.by) == 0 {
			removed = append(removed, countRow(g, was))
		}
		if now > 0 || len(v.def.by) == 0 {
			added = append(added, countRow(g, now))
		} else {
			delete(v.counts, g)
		}
	}
	return added, removed, len(atoms), true
}

// deltaMirror folds DML records into a relation mirror: each record sets
// its item's stored-tuple state absolutely (assert -> "+", deny -> "-",
// retract -> absent), so replay converges even when the mirror was
// bootstrapped ahead of the tail position.
func (v *view) deltaMirror(ops []catalog.TxOp) (added, removed []string) {
	for _, op := range ops {
		if op.Relation != v.def.source {
			continue
		}
		it := core.Item(op.Values)
		plus := core.Tuple{Item: it, Sign: true}.String()
		minus := core.Tuple{Item: it, Sign: false}.String()
		var want string
		switch op.Kind {
		case catalog.KindAssert:
			want = plus
		case catalog.KindDeny:
			want = minus
		case catalog.KindRetract:
			want = ""
		default:
			continue
		}
		for _, row := range []string{plus, minus} {
			if row == want {
				continue
			}
			if _, present := v.rows[row]; present {
				delete(v.rows, row)
				v.sorted = nil
				removed = append(removed, row)
			}
		}
		if want != "" {
			if _, present := v.rows[want]; !present {
				v.rows[want] = struct{}{}
				v.sorted = nil
				added = append(added, want)
			}
		}
	}
	sort.Strings(added)
	sort.Strings(removed)
	return added, removed
}

// Create registers a materialized view: the defining query (canonical HQL,
// as produced by hql.Render) is compiled, evaluated once, and maintained
// from this point in the WAL onward.
func (m *Manager) Create(name, query string) error {
	if name == "" || strings.ContainsAny(name, " \n\r\t") {
		return fmt.Errorf("view: invalid view name %q", name)
	}
	d, err := compile(query)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return storage.ErrStoreClosed
	}
	if _, ok := m.views[name]; ok {
		return fmt.Errorf("view: view %q already exists", name)
	}
	if _, err := m.store.Database().Snapshot(name); err == nil {
		return fmt.Errorf("view: relation %q already exists", name)
	}
	var res evalResult
	if err := m.store.ReadLocked(func(db *catalog.Database) error {
		var e error
		res, e = eval(m.ctx, db, name, d)
		return e
	}); err != nil {
		return err
	}
	v := &view{
		name:    name,
		query:   query,
		def:     d,
		rows:    map[string]struct{}{},
		domains: res.domains,
		pos:     m.pos,
		floor:   m.pos,
	}
	v.setRows(res.rows) // the initial rows are the snapshot, not a journal entry
	v.rel, v.pre, v.counts = res.rel, res.pre, res.counts
	m.views[name] = v
	m.bumpLocked()
	return m.saveLocked()
}

// Drop unregisters a view. Active feeds terminate with a "dropped" error.
func (m *Manager) Drop(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.views[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(m.views, name)
	m.bumpLocked()
	return m.saveLocked()
}

// Has reports whether a view with the name exists.
func (m *Manager) Has(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.views[name]
	return ok
}

// Names lists registered views, sorted.
func (m *Manager) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.views))
	for n := range m.views {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Rows returns the view's current rows, sorted.
func (m *Manager) Rows(name string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.views[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return append([]string(nil), v.sortedRows()...), nil
}

// Snapshot returns the view's relation form for catalog-style reads: one
// immutable copy per version of the view, shared by every reader of it.
func (m *Manager) Snapshot(name string) (*core.Relation, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.views[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if v.rel == nil || v.def.kind == kindCount {
		if v.lastErr != "" {
			return nil, fmt.Errorf("view: %q is broken: %s", name, v.lastErr)
		}
		return nil, fmt.Errorf("view: %q has no relation form", name)
	}
	if v.pub == nil {
		v.pub = v.rel.Clone()
	}
	return v.pub, nil
}

// Status renders one view's definition and maintenance state.
func (m *Manager) Status(name string) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.views[name]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", v.name, v.query)
	fmt.Fprintf(&b, "  rows=%d position=%d/%d deltas=%d skipped=%d recomputes=%d journal=%d",
		len(v.rows), v.pos.Epoch, v.pos.Offset, v.deltas, v.skipped, v.recomputes, len(v.journal))
	if v.lastErr != "" {
		fmt.Fprintf(&b, "\n  error: %s", v.lastErr)
	}
	return b.String(), nil
}

// Stats reports a view's maintenance counters (for tests and benchmarks).
func (m *Manager) Stats(name string) (deltas, recomputes uint64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.views[name]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return v.deltas, v.recomputes, nil
}

// Wait blocks until every committed mutation as of the call has been folded
// into all views — the test and benchmark quiescence point.
func (m *Manager) Wait(ctx context.Context) error {
	epoch, off := m.store.Position()
	target := storage.Position{Epoch: epoch, Offset: off}
	for {
		m.mu.Lock()
		cur, ch := m.pos, m.change
		m.mu.Unlock()
		if !cur.Before(target) {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-m.ctx.Done():
			return m.ctx.Err()
		case <-ch:
		}
	}
}

// feedViewLocked resolves a feed target: a user view, or a lazily created
// mirror over a base relation (SUBSCRIBE <relation>).
func (m *Manager) feedViewLocked(name string) (*view, error) {
	if v, ok := m.views[name]; ok {
		return v, nil
	}
	if v, ok := m.mirrors[name]; ok {
		return v, nil
	}
	d := &def{kind: kindMirror, source: name}
	var res evalResult
	if err := m.store.ReadLocked(func(db *catalog.Database) error {
		var e error
		res, e = eval(m.ctx, db, name, d)
		return e
	}); err != nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	v := &view{
		name:    name,
		def:     d,
		rows:    map[string]struct{}{},
		domains: res.domains,
		pos:     m.pos,
		floor:   m.pos,
	}
	v.setRows(res.rows)
	m.mirrors[name] = v
	return v, nil
}

// ServeFeed streams a view's (or relation's) change feed through send, one
// change per call. Without resume it opens with a snapshot of the full row
// set; with resume it replays exactly the journaled deltas after (epoch,
// offset). Heartbeats mark the position while nothing changes. It returns
// nil when ctx is canceled, send's error when a send fails, and otherwise
// why the feed cannot go on: wire.ErrFeedNotFound, wire.ErrFeedStale (the
// position was trimmed from the journal; resubscribe without resume),
// wire.ErrFeedDropped or wire.ErrFeedClosed.
func (m *Manager) ServeFeed(ctx context.Context, name string, epoch uint64, offset int64, resume bool, send func(wire.Change) error) error {
	var cur storage.Position
	m.mu.Lock()
	v, err := m.feedViewLocked(name)
	if err != nil {
		m.mu.Unlock()
		return fmt.Errorf("%w: %q", wire.ErrFeedNotFound, name)
	}
	if resume {
		cur = storage.Position{Epoch: epoch, Offset: offset}
		if cur.Before(v.floor) || v.pos.Before(cur) {
			m.mu.Unlock()
			return fmt.Errorf("%w: resubscribe without resume", wire.ErrFeedStale)
		}
		m.mu.Unlock()
	} else {
		cur = v.pos
		snap := wire.Change{
			Kind:   wire.ChangeSnapshot,
			Epoch:  cur.Epoch,
			Offset: cur.Offset,
			Rows:   append([]string(nil), v.sortedRows()...),
		}
		m.mu.Unlock()
		if err := send(snap); err != nil {
			return err
		}
	}

	hb := time.NewTicker(m.opts.Heartbeat)
	defer hb.Stop()
	for {
		m.mu.Lock()
		alive := m.views[name] == v || m.mirrors[name] == v
		if !alive {
			m.mu.Unlock()
			return fmt.Errorf("%w: %q", wire.ErrFeedDropped, name)
		}
		var pending []entry
		for _, e := range v.journal {
			if cur.Before(e.pos) {
				pending = append(pending, e)
			}
		}
		vpos := v.pos
		ch := m.change
		m.mu.Unlock()

		if len(pending) > 0 {
			for _, e := range pending {
				d := wire.Change{
					Kind:    wire.ChangeDelta,
					Epoch:   e.pos.Epoch,
					Offset:  e.pos.Offset,
					Added:   e.added,
					Removed: e.removed,
				}
				if err := send(d); err != nil {
					return err
				}
				cur = e.pos
			}
			continue
		}
		if cur.Before(vpos) {
			cur = vpos // nothing journaled in between: safe to fast-forward
		}

		select {
		case <-ctx.Done():
			return nil
		case <-m.ctx.Done():
			return fmt.Errorf("%w: view manager closing", wire.ErrFeedClosed)
		case <-ch:
		case <-hb.C:
			if err := send(wire.Change{Kind: wire.ChangeHeartbeat, Epoch: cur.Epoch, Offset: cur.Offset}); err != nil {
				return err
			}
		}
	}
}
