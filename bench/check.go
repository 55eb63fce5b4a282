package main

import (
	"slices"
	"sort"
	"strings"
	"time"

	"hrdb"
	"hrdb/internal/hql"
)

// checkAnswers compares kept answers with the paper's oracle: the same
// statement on the in-memory fixture the store was never told apart from,
// and — for HOLDS — membership in the relation's flat extension, which is
// the model's definition of the answer (§3: a hierarchical relation equals
// one flat relation).
func (e *env) checkAnswers(res *result, answers []answer) {
	if len(answers) == 0 {
		return
	}
	sess := hrdb.NewSession(e.oracle)
	flats := map[string]*hrdb.FlatRelation{}
	flat := func(rel string) *hrdb.FlatRelation {
		if f, ok := flats[rel]; ok {
			return f
		}
		var f *hrdb.FlatRelation
		if r, err := e.oracle.Snapshot(rel); err == nil {
			if ext, err := r.Extension(); err == nil {
				s := r.Schema()
				attrs := make([]string, s.Arity())
				for i := range attrs {
					attrs[i] = s.Attr(i).Name
				}
				f = hrdb.NewFlatRelation(rel, attrs...)
				for _, it := range ext {
					_ = f.Insert(it...) // rows of an extension are distinct and of the right arity
				}
			}
		}
		flats[rel] = f
		return f
	}
	for _, a := range answers {
		want, err := sess.Exec(a.text)
		if err != nil || want != a.out {
			res.wrong("%s answered %q, oracle says %q (%v)", a.text, a.out, want, err)
			continue
		}
		stmts, err := hql.Parse(a.text)
		if err != nil || len(stmts) != 1 {
			continue
		}
		if h, ok := stmts[0].(hql.HoldsStmt); ok {
			if f := flat(h.Relation); f != nil && f.Has(h.Values...) != (strings.TrimSpace(a.out) == "true") {
				res.wrong("%s answered %q, flat extension says %v", a.text, a.out, f.Has(h.Values...))
			}
		}
	}
	res.Samples["answers_checked"] += len(answers)
}

// checkTail runs after quiesce: every derived copy of Flies must agree with
// the relation itself. It returns the feed's write-to-delta delays.
func (e *env) checkTail(res *result) []time.Duration {
	rows, err := e.views.Rows("FliesFlat")
	if err != nil {
		res.wrong("view rows: %v", err)
		return nil
	}
	var fresh []string
	if r, err := e.store.Database().Snapshot("Flies"); err == nil {
		ext, err := r.Extension()
		if err != nil {
			res.wrong("fresh extension: %v", err)
		}
		for _, it := range ext {
			fresh = append(fresh, it.String())
		}
		sort.Strings(fresh)
	}
	if !slices.Equal(rows, fresh) {
		res.wrong("view FliesFlat has %d rows, a fresh EXTENSION has %d", len(rows), len(fresh))
	}
	folded, visible, err := e.feed.state()
	if err != nil {
		res.wrong("feed: %v", err)
	}
	if !slices.Equal(folded, rows) {
		res.wrong("subscriber folded %d rows, the view has %d", len(folded), len(rows))
	}
	if got, want := hrdb.Fingerprint(e.replica.Database()), hrdb.Fingerprint(e.store.Database()); got != want {
		res.wrong("replica fingerprint %s, primary %s", got, want)
	}
	return visible
}

// checkAcked verifies, on the reopened store, every write the server
// acknowledged. Whole cycles leave nothing behind, so what must be there is
// what each client's unfinished cycle has inserted and not yet retracted —
// and the relations must hold nothing else.
func (e *env) checkAcked(res *result) {
	if res.Failed > 0 {
		return // an unanswered write may or may not have landed
	}
	type key struct{ rel, item string }
	live := map[key]hrdb.TxOp{}
	for c, stream := range e.streams {
		for _, s := range stream[:e.pos[c]%len(stream)] {
			if s.Class != classWrite {
				continue
			}
			stmts, err := hql.Parse(s.Text)
			if err != nil {
				res.wrong("parse %s: %v", s.Text, err)
				return
			}
			for _, o := range opsOf(stmts) {
				k := key{o.Relation, hrdb.Item(o.Values).Key()}
				if o.Kind == "retract" {
					delete(live, k)
				} else {
					live[k] = o
				}
			}
		}
	}
	extra := map[string]int{}
	for k, o := range live {
		extra[k.rel]++
		r, err := e.store.Database().Relation(k.rel)
		if err != nil {
			res.wrong("acked write lost: %v", err)
			continue
		}
		if t, ok := r.Lookup(hrdb.Item(o.Values)); !ok || t.Sign != (o.Kind == "assert") {
			res.wrong("acknowledged %s %s %v is not in the reopened store", o.Kind, o.Relation, o.Values)
		}
	}
	for rel, n := range e.fx.counts {
		r, err := e.store.Database().Relation(rel)
		if err != nil {
			res.wrong("relation lost: %v", err)
			continue
		}
		if r.Len() != n+extra[rel] {
			res.wrong("%s holds %d tuples after reopen, want %d", rel, r.Len(), n+extra[rel])
		}
	}
}
