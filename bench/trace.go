package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hrdb"
	"hrdb/internal/hql"
)

// span is one timed call into a layer. The program carries no
// instrumentation of its own yet: every span is recorded here, around a
// call to a layer's public function, while a sampled statement is replayed
// hop by hop right after the server answered it.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // 0 for a request's root span
	Req    int    `json:"req"`    // one per sampled statement
}

// tracer collects spans in memory; they are written out when the run ends.
type tracer struct {
	every int // one statement in this many is replayed
	epoch time.Time
	ids   atomic.Int64
	reqs  atomic.Int64

	mu     sync.Mutex
	spans  []span
	probes int // plans that chose the index probe
	plans  int
	waits  []waited
	shadow sync.Mutex // serializes replays on the in-memory clone
}

// waited is a sampled write whose row change the feed should deliver: when
// it was sent, and when the views had caught up with it.
type waited struct {
	row          string
	sent, caught time.Time
}

func newTracer(every int) *tracer { return &tracer{every: every, epoch: time.Now()} }

// replayer is one client's side of the tracer: its spans, an in-process
// session on the served target, and private relation snapshots.
type replayer struct {
	e      *env
	tr     *tracer
	client int
	spans  []span
	sess   *hql.Session
	snaps  map[string]*hrdb.Relation
	seen   map[string]bool // items already evaluated on a snapshot: the next evaluation is warm
	probes int
	plans  int
	waits  []waited
}

func newReplayer(e *env, tr *tracer, client int) *replayer {
	return &replayer{e: e, tr: tr, client: client, sess: hql.NewSession(e.target),
		snaps: map[string]*hrdb.Relation{}, seen: map[string]bool{}}
}

func (rp *replayer) done() {
	rp.tr.mu.Lock()
	rp.tr.spans = append(rp.tr.spans, rp.spans...)
	rp.tr.probes += rp.probes
	rp.tr.plans += rp.plans
	rp.tr.waits = append(rp.tr.waits, rp.waits...)
	rp.tr.mu.Unlock()
}

func (rp *replayer) add(name string, parent, req int, start, end time.Time) int {
	id := int(rp.tr.ids.Add(1))
	rp.spans = append(rp.spans, span{ID: id, Name: name, Parent: parent, Req: req,
		Start: start.Sub(rp.tr.epoch).Nanoseconds(), End: end.Sub(rp.tr.epoch).Nanoseconds()})
	return id
}

func (rp *replayer) timed(name string, parent, req int, fn func()) {
	t0 := time.Now()
	fn()
	rp.add(name, parent, req, t0, time.Now())
}

// snapshot returns this client's private copy of a relation, taken once:
// the read workloads never change it, and a cold/warm evaluation needs a
// cache nobody else fills.
func (rp *replayer) snapshot(rel string) *hrdb.Relation {
	if r, ok := rp.snaps[rel]; ok {
		return r
	}
	r, err := rp.e.store.Database().Snapshot(rel)
	if err != nil {
		return nil
	}
	rp.snaps[rel] = r
	return r
}

// replay re-runs a statement the server just answered, one layer at a time.
// Errors are ignored: the statement already succeeded over the wire, and a
// hop that cannot be replayed only leaves its span out.
func (rp *replayer) replay(s stmt, sent, answered time.Time) {
	ctx := context.Background()
	req := int(rp.tr.reqs.Add(1))
	root := rp.add("request", 0, req, sent, sent) // end patched below
	at := len(rp.spans) - 1
	rp.add("server.exec", root, req, sent, answered)
	if rp.e.views != nil && s.Row != "" {
		// Before any other hop: the replay's own probe writes below are
		// changes the views must fold too, and would be timed with this one.
		// The statement's acknowledgement opens the span: it is how long
		// after the ack the views had folded the write in.
		_ = rp.e.views.Wait(ctx)
		caught := time.Now()
		rp.add("view.catchup", root, req, answered, caught)
		rp.waits = append(rp.waits, waited{row: s.Row, sent: sent, caught: caught})
		// Likewise the delta's delivery is left alone: the replay goes on
		// once the subscriber has it (delivered dates it, not this wait).
		brief, cancel := context.WithTimeout(ctx, time.Second)
		_ = rp.e.feed.await(brief, s.Row, sent)
		cancel()
	}

	var stmts []hql.Stmt
	rp.timed("hql.parse", root, req, func() { stmts, _ = hql.Parse(s.Text) })
	if len(stmts) == 0 {
		return
	}
	if s.Class != classWrite {
		rp.timed("hql.session", root, req, func() { _, _ = rp.sess.ExecContext(ctx, s.Text) })
	}
	switch st := stmts[0].(type) {
	case hql.HoldsStmt:
		rp.evaluate(root, req, st.Relation, st.Values)
	case hql.WhyStmt:
		rp.evaluate(root, req, st.Relation, st.Values)
	case hql.SelectStmt:
		var r *hrdb.Relation
		rp.timed("catalog.snapshot", root, req, func() { r, _ = rp.e.store.Database().Snapshot(st.Relation) })
		if r == nil {
			break // a view: it has no catalog relation to plan against
		}
		conds := make([]hrdb.Condition, len(st.Conds))
		for i, c := range st.Conds {
			conds[i] = hrdb.Condition{Attr: c[0], Class: c[1]}
		}
		rp.timed("algebra.plan", root, req, func() {
			if p, err := hrdb.PlanSelect(r, conds...); err == nil {
				rp.plans++
				if p.Access == "index-probe" {
					rp.probes++
				}
			}
		})
		rp.timed("algebra.select", root, req, func() { _, _ = hrdb.SelectContext(ctx, "replay", r, conds...) })
	default:
		if s.Class == classWrite {
			rp.write(root, req, stmts)
		}
	}
	rp.spans[at].End = time.Since(rp.tr.epoch).Nanoseconds()
}

func (rp *replayer) evaluate(root, req int, rel string, values []string) {
	r := rp.snapshot(rel)
	if r == nil {
		return // a view
	}
	key := rel + "\x00" + hrdb.Item(values).Key()
	name := "core.evaluate_cold"
	if rp.seen[key] {
		name = "core.evaluate_warm"
	}
	rp.seen[key] = true
	rp.timed(name, root, req, func() { _, _ = r.Evaluate(hrdb.Item(values)) })
	rp.timed("core.evaluate_warm", root, req, func() { _, _ = r.Evaluate(hrdb.Item(values)) })
}

// write replays a write's hops. The statement's own ops run on an in-memory
// clone (mutation + ambiguity check, no log) and are then undone so the
// clone stays the fixture; the durable hops run on this client's probe
// instance, which no stream touches, so they commit through the real WAL
// beside the foreground traffic without changing what the streams see.
func (rp *replayer) write(root, req int, stmts []hql.Stmt) {
	ctx := context.Background()
	ops := opsOf(stmts)
	shadow := rp.e.shadow
	rp.tr.shadow.Lock()
	undo := inverse(shadow, ops)
	rp.timed("catalog.apply", root, req, func() { _ = shadow.ApplyOps(ops) })
	_ = shadow.ApplyOps(undo)
	// The probe's retraction on the clone: the same op storage.applytx
	// commits below, without the log, so the two subtract.
	probe := rp.e.fx.probe[rp.client]
	_ = shadow.ApplyOps([]hrdb.TxOp{tuple(true, "Flies", probe)})
	rp.timed("catalog.apply_probe", root, req, func() { _ = shadow.ApplyOps([]hrdb.TxOp{retract("Flies", probe)}) })
	rp.tr.shadow.Unlock()

	rp.timed("hql.write", root, req, func() { _, _ = rp.sess.ExecContext(ctx, "ASSERT Flies ("+probe+");") })
	rp.timed("storage.applytx", root, req, func() { _ = rp.e.store.ApplyTx([]hrdb.TxOp{retract("Flies", probe)}) })
}

// opsOf turns a parsed write statement — a single op or a bracket — into the
// ops it commits.
func opsOf(stmts []hql.Stmt) []hrdb.TxOp {
	var ops []hrdb.TxOp
	for _, st := range stmts {
		switch st := st.(type) {
		case hql.AssertStmt:
			ops = append(ops, tuple(st.Sign, st.Relation, st.Values...))
		case hql.RetractStmt:
			ops = append(ops, retract(st.Relation, st.Values...))
		}
	}
	return ops
}

// inverse returns the ops that restore what ops are about to overwrite.
func inverse(db *hrdb.Database, ops []hrdb.TxOp) []hrdb.TxOp {
	var undo []hrdb.TxOp
	for i := len(ops) - 1; i >= 0; i-- {
		o := ops[i]
		r, err := db.Relation(o.Relation)
		if err != nil {
			continue
		}
		if old, ok := r.Lookup(hrdb.Item(o.Values)); ok {
			undo = append(undo, tuple(old.Sign, o.Relation, o.Values...))
		} else {
			undo = append(undo, retract(o.Relation, o.Values...))
		}
	}
	return undo
}

// durations groups span lengths by name.
func (tr *tracer) durations() map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range tr.spans {
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start))
	}
	return out
}

// paired returns, per request that has both spans, the length of a minus the
// length of b.
func (tr *tracer) paired(a, b string) []time.Duration {
	type ab struct{ a, b time.Duration }
	byReq := map[int]*ab{}
	for _, s := range tr.spans {
		if s.Name != a && s.Name != b {
			continue
		}
		p := byReq[s.Req]
		if p == nil {
			p = &ab{a: -1, b: -1}
			byReq[s.Req] = p
		}
		if s.Name == a {
			p.a = time.Duration(s.End - s.Start)
		} else {
			p.b = time.Duration(s.End - s.Start)
		}
	}
	var out []time.Duration
	for _, p := range byReq {
		if p.a >= 0 && p.b >= 0 {
			out = append(out, p.a-p.b)
		}
	}
	return out
}

func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func medianOf(d []time.Duration) time.Duration { return quantile(sortedDurations(d), 0.5) }

// timeN returns the median of n timings of fn.
func timeN(n int, fn func()) time.Duration {
	d := make([]time.Duration, n)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = time.Since(t0)
	}
	return medianOf(d)
}

// probeLayers times the layers no statement replay reaches, once, on an
// otherwise idle system, before the traced window opens.
func (e *env) probeLayers(res *result) {
	ctx := context.Background()
	res.set("server.roundtrip_us", us(timeN(200, func() { _ = e.clients[0].Ping(ctx) })), "us")

	if h, err := e.store.Database().Hierarchy("Animal"); err == nil {
		h.Warm()
		rng := rand.New(rand.NewSource(e.cfg.seed))
		nodes := h.Nodes()
		const n = 20000
		pairs := make([][2]string, n)
		for i := range pairs {
			pairs[i] = [2]string{nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]}
		}
		round := timeN(9, func() {
			for _, p := range pairs {
				h.Subsumes(p[0], p[1])
			}
		})
		res.set("hierarchy.subsumes_ns", float64(round.Nanoseconds())/n, "ns")
	}
	if e.cfg.w.name == "analytic_read" {
		likes, err1 := e.store.Database().Snapshot("Likes")
		habitat, err2 := e.store.Database().Snapshot("Habitat")
		if err1 == nil && err2 == nil {
			res.set("algebra.join_us", us(timeN(3, func() { _, _ = hrdb.JoinContext(ctx, "replay", likes, habitat) })), "us")
		}
	}
	if e.views != nil {
		res.set("view.rows_us", us(timeN(50, func() { _, _ = e.views.Rows("FliesFlat") })), "us")
	}
}

// delivered returns, per sampled write, how long after the views had caught
// up the subscriber held the delta.
func (e *env) delivered(tr *tracer) []time.Duration {
	var out []time.Duration
	for _, w := range tr.waits {
		if at, ok := e.feed.arrivedAfter(w.row, w.sent); ok {
			d := at.Sub(w.caught)
			if d < 0 {
				d = 0 // another client's write moved Wait's target past this one's delta
			}
			out = append(out, d)
		}
	}
	return out
}
