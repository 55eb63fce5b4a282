package hql

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"hrdb/internal/algebra"
	"hrdb/internal/catalog"
	"hrdb/internal/core"
	"hrdb/internal/deductive"
	"hrdb/internal/hierarchy"
	"hrdb/internal/obs"
)

// ErrNoTx is returned by COMMIT/ROLLBACK outside a transaction.
var ErrNoTx = errors.New("hql: no transaction in progress")

// ErrInTx is returned by BEGIN inside a transaction.
var ErrInTx = errors.New("hql: transaction already in progress")

// TxOp is one buffered transactional update (an alias of catalog.TxOp so
// storage back ends can implement Target without importing this package).
type TxOp = catalog.TxOp

// Target abstracts the mutable database a session executes against: an
// in-memory catalog (MemTarget), a durable storage.Store, or a wrapper
// around either (a read-only replica, a view-aware target). Every mutation
// — a single statement or a BEGIN…COMMIT bracket — reaches it as one
// Apply call, which returns the exception warnings that write raised; an
// empty list applies nothing.
type Target interface {
	Database() *catalog.Database
	Apply(ops []TxOp) ([]string, error)
}

// MemTarget adapts a bare catalog.Database to the Target interface.
type MemTarget struct{ DB *catalog.Database }

// Database returns the wrapped database.
func (m MemTarget) Database() *catalog.Database { return m.DB }

// Apply implements Target.
func (m MemTarget) Apply(ops []TxOp) ([]string, error) { return m.DB.Apply(ops) }

// Scope narrows a read to the stored tuples that can reach its answer. The
// zero Scope is the whole relation.
type Scope struct {
	// Items scopes a point read (HOLDS, WHY) to the tuples applicable to
	// each item; the read also yields the verdict of Items[0].
	Items []core.Item
	// Conds scopes SELECT to the tuples overlapping the region its
	// (attribute, class) conditions name.
	Conds [][2]string
	// verify renews a catalog relation's stale consistency stamp before
	// the read, or for a kept answer before its derive alone: SELECT skips
	// its result repair over a verified relation (docs/THEORY.md §5).
	// Views and TupleSource relations are read as is.
	verify bool
}

// TupleSource is the optional interface of a Target whose Database holds
// the catalog but not the tuples: a shard coordinator, whose Database is a
// mirror of its shards' catalog with every relation, an `… AS` result
// included, left empty. Every read of relation data is served by Tuples.
// Like ViewCatalog, support is detected by assertion.
type TupleSource interface {
	// Tuples returns a relation with name's schema and mode holding every
	// stored tuple the scope can reach.
	Tuples(ctx context.Context, name string, scope Scope) (*core.Relation, error)
}

// ErrSessionBusy reports concurrent use of a Session: a second ExecContext
// entered while another statement was still executing. Sessions hold
// transaction state, so interleaved execution would corrupt it; the guard
// makes the misuse fail loudly instead.
var ErrSessionBusy = errors.New("hql: session is single-goroutine; concurrent ExecContext rejected")

// Session executes HQL statements against a target, holding transaction
// state and the session's Datalog rules.
//
// A Session is strictly single-goroutine: it buffers transaction operations
// between BEGIN and COMMIT, so two interleaved statements could commit a
// mix of both transactions. Concurrent callers must create one Session
// each (the underlying Target — catalog or store — is itself
// synchronized). A cheap CAS guard enforces this: an ExecContext entered
// while another is in flight returns ErrSessionBusy without touching any
// state.
//
// Ownership model for servers: one Session per logical stream. The wire
// protocol runs many streams per connection, each owning a private
// session, with per-stream FIFO dispatch guaranteeing the single-goroutine
// contract. A session whose
// stream is abandoned mid-statement must be retired (the statement may
// still be running); a session whose stream ended cleanly may be reused
// after Reset.
type Session struct {
	target Target
	txOps  []TxOp
	inTx   bool
	rules  []deductive.Rule
	// busy guards against concurrent ExecContext (see ErrSessionBusy).
	busy atomic.Bool
	// slow and tracer are the session's observability hooks (see obs.go);
	// both nil by default, in which case execution pays nothing for them.
	slow   *obs.SlowQueryLog
	tracer obs.Tracer
}

// NewSession creates a session over the target.
func NewSession(target Target) *Session { return &Session{target: target} }

// InTx reports whether a transaction is open.
func (s *Session) InTx() bool { return s.inTx }

// Reset returns the session to its base state: any open transaction is
// discarded (its buffered operations are dropped, never applied) and the
// session's Datalog rules are cleared. It lets a connection pool — the v2
// server multiplexer runs one session per logical stream — reuse a session
// for a new stream without leaking the previous stream's state. Reset on a
// session whose statement is still executing returns ErrSessionBusy and
// changes nothing.
func (s *Session) Reset() error {
	if !s.busy.CompareAndSwap(false, true) {
		return ErrSessionBusy
	}
	defer s.busy.Store(false)
	s.inTx = false
	s.txOps = nil
	s.rules = nil
	return nil
}

// Exec parses and executes statements, returning the combined output text.
func (s *Session) Exec(input string) (string, error) {
	return s.ExecContext(context.Background(), input)
}

// ExecContext is Exec with cancellation: long-running query statements
// (SELECT, EXTENSION, COUNT, set operations, JOIN, PROJECT) observe ctx and
// abort with its error. Cancellation is checked between statements too, so
// a multi-statement script stops at the first uncompleted statement.
func (s *Session) ExecContext(ctx context.Context, input string) (string, error) {
	if !s.busy.CompareAndSwap(false, true) {
		return "", ErrSessionBusy
	}
	defer s.busy.Store(false)
	if s.slow != nil || s.tracer != nil {
		return s.observed(ctx, input)
	}
	return s.run(ctx, input, nil)
}

// run parses and executes a script. When stages is non-nil every phase's
// wall-clock time is appended to it — "parse" first, then one
// "exec:<kind>" entry per statement — for the slow-query log and tracer.
func (s *Session) run(ctx context.Context, input string, stages *[]obs.Stage) (string, error) {
	var t0 time.Time
	if stages != nil {
		t0 = time.Now()
	}
	stmts, err := Parse(input)
	if stages != nil {
		*stages = append(*stages, obs.Stage{Name: "parse", Duration: time.Since(t0)})
	}
	if err != nil {
		return "", err
	}
	var out strings.Builder
	for _, st := range stmts {
		if err := ctx.Err(); err != nil {
			return out.String(), err
		}
		metricStatements.Inc()
		if stages != nil {
			t0 = time.Now()
		}
		res, err := s.exec(ctx, st)
		if stages != nil {
			d := time.Since(t0)
			*stages = append(*stages, obs.Stage{Name: "exec:" + stmtName(st), Duration: d})
			if s.tracer != nil {
				s.tracer.Span(obs.Span{Name: "hql." + stmtName(st), Start: t0, Duration: d, Err: err})
			}
		}
		if err != nil {
			return out.String(), err
		}
		if res != "" {
			out.WriteString(res)
			if !strings.HasSuffix(res, "\n") {
				out.WriteString("\n")
			}
		}
	}
	return out.String(), nil
}

// exec runs one statement.
func (s *Session) exec(ctx context.Context, st Stmt) (string, error) {
	if op, ack, err := s.opOf(st); err != nil {
		return "", err
	} else if op.Kind != "" {
		out, err := s.mutate(op, ack)
		if err != nil || ack != "" {
			return out, err
		}
		// CONSOLIDATE and EXPLICATE answer with the count they leave.
		n, err := read(ctx, s, op.Relation, Scope{}, func(r *core.Relation) (int, error) { return r.Len(), nil })
		if err != nil {
			return "", err
		}
		if op.Kind == catalog.KindConsolidate {
			return fmt.Sprintf("consolidated %s (%d tuples remain)", op.Relation, n), nil
		}
		return fmt.Sprintf("explicated %s (%d tuples)", op.Relation, n), nil
	}
	switch st := st.(type) {
	case HoldsStmt:
		v, err := read(ctx, s, st.Relation, Scope{Items: []core.Item{st.Values}}, func(r *core.Relation) (core.Verdict, error) {
			return r.Evaluate(st.Values)
		})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%v", v.Value), nil

	case WhyStmt:
		v, err := read(ctx, s, st.Relation, Scope{Items: []core.Item{st.Values}}, func(r *core.Relation) (core.Verdict, error) {
			return r.Evaluate(st.Values)
		})
		if err != nil {
			return "", err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s(%s) = %v\n", st.Relation, strings.Join(st.Values, ", "), v.Value)
		if v.Default {
			b.WriteString("  by default (no applicable tuple; universal negated tuple)\n")
			return b.String(), nil
		}
		b.WriteString("  strongest binding:\n")
		for _, t := range v.Binders {
			fmt.Fprintf(&b, "    %s\n", t)
		}
		b.WriteString("  applicable tuples:\n")
		for _, t := range v.Applicable {
			fmt.Fprintf(&b, "    %s\n", t)
		}
		return b.String(), nil

	case SelectStmt:
		scope, conds := Scope{Conds: st.Conds, verify: true}, conditions(st.Conds)
		if st.As == "" {
			// The answer depends on the conditions only through their region.
			name := "σ(" + st.Relation + ")"
			return answer(ctx, s, st.Relation, scope, func(r *core.Relation) (string, error) {
				region, err := algebra.SelectRegion(r, conds...)
				return "SELECT\x00" + name + "\x00" + region.Key(), err
			}, func(r *core.Relation) (string, error) {
				res, err := algebra.SelectContext(ctx, name, r, conds...)
				if err != nil {
					return "", err
				}
				return res.Consolidate().Table(), nil
			})
		}
		res, err := read(ctx, s, st.Relation, scope, func(r *core.Relation) (*core.Relation, error) {
			return algebra.SelectContext(ctx, st.As, r, conds...)
		})
		if err != nil {
			return "", err
		}
		res = res.Consolidate()
		if err := s.attach(res); err != nil {
			return "", err
		}
		return res.Table(), nil

	case ExplainStmt:
		switch inner := st.Inner.(type) {
		case SelectStmt:
			plan, err := read(ctx, s, inner.Relation, Scope{}, func(r *core.Relation) (*algebra.Plan, error) {
				return algebra.PlanSelect(r, conditions(inner.Conds)...)
			})
			if err != nil {
				return "", err
			}
			return plan.String(), nil
		case BinOpStmt:
			left, err := s.snapshot(ctx, inner.Left)
			if err != nil {
				return "", err
			}
			right, err := s.snapshot(ctx, inner.Right)
			if err != nil {
				return "", err
			}
			plan, err := algebra.PlanBinOp(inner.Op, left, right)
			if err != nil {
				return "", err
			}
			return plan.String(), nil
		}
		return "", fmt.Errorf("hql: EXPLAIN: unsupported statement %T", st.Inner)

	case ExtensionStmt:
		return answer(ctx, s, st.Relation, Scope{}, func(*core.Relation) (string, error) {
			return "EXTENSION\x00" + st.Relation, nil
		}, func(r *core.Relation) (string, error) {
			ext, err := r.ExtensionContext(ctx)
			if err != nil {
				return "", err
			}
			var b strings.Builder
			fmt.Fprintf(&b, "%s: %d atomic items\n", st.Relation, len(ext))
			for _, it := range ext { // it.String()'s bytes, with no allocation per row
				b.WriteString("  (")
				for i, v := range it {
					if i > 0 {
						b.WriteString(", ")
					}
					b.WriteString(v)
				}
				b.WriteString(")\n")
			}
			return b.String(), nil
		})

	case BinOpStmt:
		left, err := s.snapshot(ctx, st.Left)
		if err != nil {
			return "", err
		}
		right, err := s.snapshot(ctx, st.Right)
		if err != nil {
			return "", err
		}
		var res *core.Relation
		switch st.Op {
		case "union":
			res, err = algebra.UnionContext(ctx, st.As, left, right)
		case "intersect":
			res, err = algebra.IntersectContext(ctx, st.As, left, right)
		case "difference":
			res, err = algebra.DifferenceContext(ctx, st.As, left, right)
		case "join":
			res, err = algebra.JoinContext(ctx, st.As, left, right)
		}
		if err != nil {
			return "", err
		}
		if err := s.attach(res); err != nil {
			return "", err
		}
		return res.Table(), nil

	case ProjectStmt:
		res, err := read(ctx, s, st.Relation, Scope{}, func(r *core.Relation) (*core.Relation, error) {
			return algebra.ProjectContext(ctx, st.As, r, st.Attrs...)
		})
		if err != nil {
			return "", err
		}
		if err := s.attach(res); err != nil {
			return "", err
		}
		return res.Table(), nil

	case RuleStmt:
		rule, err := toRule(st)
		if err != nil {
			return "", err
		}
		// Validate against a throwaway program so bad rules are rejected
		// up front.
		probe := deductive.NewProgram()
		if err := probe.AddRule(rule); err != nil {
			return "", err
		}
		s.rules = append(s.rules, rule)
		return "rule added: " + rule.String(), nil

	case InferStmt:
		return s.infer(ctx, st)

	case CountStmt:
		return answer(ctx, s, st.Relation, Scope{}, func(*core.Relation) (string, error) {
			return "COUNT\x00" + st.Relation + "\x00" + strings.Join(st.By, "\x00"), nil
		}, func(r *core.Relation) (string, error) {
			counts, err := algebra.CountContext(ctx, r, st.By...)
			if err != nil {
				return "", err
			}
			return algebra.FormatCounts(st.Relation, st.By, counts), nil
		})

	case DumpStmt:
		return Dump(s.target.Database(), func(name string) (*core.Relation, error) { return s.snapshot(ctx, name) })

	case ShowStmt:
		return s.show(ctx, st)

	case CreateViewStmt:
		vc, err := s.viewCatalog()
		if err != nil {
			return "", err
		}
		if err := vc.CreateView(st.Name, st.Query); err != nil {
			return "", err
		}
		return fmt.Sprintf("created materialized view %s", st.Name), nil

	case DropViewStmt:
		vc, err := s.viewCatalog()
		if err != nil {
			return "", err
		}
		if err := vc.DropView(st.Name); err != nil {
			return "", err
		}
		return fmt.Sprintf("dropped view %s", st.Name), nil

	case BeginStmt:
		if s.inTx {
			return "", ErrInTx
		}
		s.inTx = true
		s.txOps = nil
		return "transaction started", nil

	case CommitStmt:
		if !s.inTx {
			return "", ErrNoTx
		}
		ops := s.txOps
		s.inTx = false
		s.txOps = nil
		warnings, err := s.target.Apply(ops)
		if err != nil {
			return "", err
		}
		return renderWarnings(fmt.Sprintf("committed %d operations", len(ops)), warnings), nil

	case RollbackStmt:
		if !s.inTx {
			return "", ErrNoTx
		}
		n := len(s.txOps)
		s.inTx = false
		s.txOps = nil
		return fmt.Sprintf("rolled back %d operations", n), nil

	default:
		return "", fmt.Errorf("hql: unhandled statement %T", st)
	}
}

// opOf maps a statement that stands for one mutation to its op and the
// line that acknowledges it — none for CONSOLIDATE and EXPLICATE, whose
// line reads the result back; any other statement yields the zero op.
func (s *Session) opOf(st Stmt) (op TxOp, ack string, err error) {
	mk := func(kind, target string, values ...string) TxOp {
		return TxOp{Kind: kind, Relation: target, Values: values}
	}
	switch st := st.(type) {
	case CreateHierarchyStmt:
		return mk(catalog.KindCreateHierarchy, st.Domain), "created hierarchy " + st.Domain, nil
	case ClassStmt:
		domain, err := s.resolveDomain(st.Domain, st.Parents)
		return mk(catalog.KindAddClass, domain, append([]string{st.Name}, st.Parents...)...),
			fmt.Sprintf("class %s added to %s", st.Name, domain), err
	case InstanceStmt:
		domain, err := s.resolveDomain(st.Domain, st.Parents)
		return mk(catalog.KindAddInstance, domain, append([]string{st.Name}, st.Parents...)...),
			fmt.Sprintf("instance %s added to %s", st.Name, domain), err
	case EdgeStmt:
		return mk(catalog.KindAddEdge, st.Domain, st.Parent, st.Child),
			fmt.Sprintf("edge %s -> %s added in %s", st.Parent, st.Child, st.Domain), nil
	case PreferStmt:
		return mk(catalog.KindPrefer, st.Domain, st.Stronger, st.Weaker),
			fmt.Sprintf("preference %s over %s in %s", st.Stronger, st.Weaker, st.Domain), nil
	case DropNodeStmt:
		return mk(catalog.KindDropNode, st.Domain, st.Name),
			fmt.Sprintf("dropped node %s from %s", st.Name, st.Domain), nil
	case CreateRelationStmt:
		attrs := make([]string, 0, 2*len(st.Attrs))
		for _, a := range st.Attrs {
			attrs = append(attrs, a[0], a[1])
		}
		return mk(catalog.KindCreateRelation, st.Name, attrs...), "created relation " + st.Name, nil
	case DropRelationStmt:
		return mk(catalog.KindDropRelation, st.Name), "dropped relation " + st.Name, nil
	case ConsolidateStmt:
		return mk(catalog.KindConsolidate, st.Relation), "", nil
	case ExplicateStmt:
		return mk(catalog.KindExplicate, st.Relation, st.Attrs...), "", nil
	case AssertStmt:
		kind, past := catalog.KindAssert, "asserted"
		if !st.Sign {
			kind, past = catalog.KindDeny, "denied"
		}
		return mk(kind, st.Relation, st.Values...),
			fmt.Sprintf("%s %s(%s)", past, st.Relation, strings.Join(st.Values, ", ")), nil
	case RetractStmt:
		return mk(catalog.KindRetract, st.Relation, st.Values...),
			fmt.Sprintf("retracted %s(%s)", st.Relation, strings.Join(st.Values, ", ")), nil
	case SetModeStmt:
		var mode core.Preemption
		switch st.Mode {
		case "off_path", "offpath":
			mode = core.OffPath
		case "on_path", "onpath":
			mode = core.OnPath
		case "none", "no_preemption":
			mode = core.NoPreemption
		default:
			return op, "", fmt.Errorf("hql: %w %q (want off_path|on_path|none)", core.ErrUnknownMode, st.Mode)
		}
		return mk(catalog.KindSetMode, st.Relation, mode.String()),
			fmt.Sprintf("mode of %s = %s", st.Relation, mode), nil
	case SetPolicyStmt:
		switch st.Policy {
		case "allow", "warn", "forbid":
		default:
			return op, "", fmt.Errorf("hql: unknown policy %q (want allow|warn|forbid)", st.Policy)
		}
		return mk(catalog.KindSetPolicy, "", st.Policy), "policy = " + st.Policy, nil
	}
	return op, "", nil
}

// conditions converts a statement's (attribute, class) pairs.
func conditions(conds [][2]string) []algebra.Condition {
	out := make([]algebra.Condition, len(conds))
	for i, c := range conds {
		out[i] = algebra.Condition{Attr: c[0], Class: c[1]}
	}
	return out
}

// mutate is where a statement becomes a write: inside BEGIN…COMMIT a tuple
// update is staged for the bracket's one Apply, anything else reaches the
// target as a bare batch of one.
func (s *Session) mutate(op TxOp, ack string) (string, error) {
	if s.inTx && catalog.IsTupleOp(op.Kind) {
		s.txOps = append(s.txOps, op)
		return fmt.Sprintf("staged %s on %s", op.Kind, op.Relation), nil
	}
	op.Bare = true
	warnings, err := s.target.Apply([]TxOp{op})
	if err != nil {
		return "", err
	}
	return renderWarnings(ack, warnings), nil
}

// attach stores a derived `… AS name` result as an ordinary relation,
// through the target's write path like DDL — at once, even inside BEGIN:
// its create_relation, its set_mode unless off-path, then its tuples as one
// transaction, most specific first, so no tuple has an applicable tuple
// when it goes in and the exception policy never fires.
func (s *Session) attach(res *core.Relation) error {
	name, sc := res.Name(), res.Schema()
	attrs := make([]string, 0, 2*sc.Arity())
	for i := range sc.Arity() {
		attrs = append(attrs, sc.Attr(i).Name, sc.Attr(i).Domain.Domain())
	}
	batches := [][]TxOp{{{Kind: catalog.KindCreateRelation, Relation: name, Values: attrs}}}
	if res.Mode() != core.OffPath {
		batches = append(batches, []TxOp{{Kind: catalog.KindSetMode, Relation: name, Values: []string{res.Mode().String()}}})
	}
	ts := res.TuplesGeneralFirst()
	tx := make([]TxOp, 0, len(ts))
	for i := len(ts) - 1; i >= 0; i-- {
		kind := catalog.KindDeny
		if ts[i].Sign {
			kind = catalog.KindAssert
		}
		tx = append(tx, TxOp{Kind: kind, Relation: name, Values: ts[i].Item})
	}
	if len(tx) > 0 {
		batches = append(batches, tx)
	}
	for _, b := range batches {
		if _, err := s.target.Apply(b); err != nil {
			return err
		}
	}
	return nil
}

// renderWarnings appends a write's exception warnings to its result line,
// one "warning: " line each.
func renderWarnings(base string, warnings []string) string {
	for _, w := range warnings {
		base += "\nwarning: " + w
	}
	return base
}

// resolveDomain determines the hierarchy for CLASS/INSTANCE: the explicit
// IN domain, or the unique hierarchy containing every named parent.
func (s *Session) resolveDomain(explicit string, parents []string) (string, error) {
	if explicit != "" {
		return explicit, nil
	}
	db := s.target.Database()
	var candidates []string
	for _, d := range db.Hierarchies() {
		h, err := db.Hierarchy(d)
		if err != nil {
			continue
		}
		all := true
		for _, p := range parents {
			if !h.Has(p) {
				all = false
				break
			}
		}
		if all {
			candidates = append(candidates, d)
		}
	}
	switch len(candidates) {
	case 1:
		return candidates[0], nil
	case 0:
		return "", fmt.Errorf("hql: no hierarchy contains parents %v: %w", parents, hierarchy.ErrUnknown)
	default:
		return "", fmt.Errorf("hql: parents %v are ambiguous across hierarchies %v; use IN <domain>",
			parents, candidates)
	}
}

// toTerm converts an HQL argument to a Datalog term ('?'-prefixed =
// variable).
func toTerm(arg string) deductive.Term {
	if strings.HasPrefix(arg, "?") {
		return deductive.V(arg[1:])
	}
	return deductive.C(arg)
}

// toAtom converts an AtomSpec.
func toAtom(a AtomSpec) deductive.Atom {
	terms := make([]deductive.Term, len(a.Args))
	for i, arg := range a.Args {
		terms[i] = toTerm(arg)
	}
	if a.Negated {
		return deductive.Not(a.Pred, terms...)
	}
	return deductive.A(a.Pred, terms...)
}

// toRule converts a RuleStmt.
func toRule(st RuleStmt) (deductive.Rule, error) {
	r := deductive.Rule{Head: toAtom(st.Head)}
	for _, b := range st.Body {
		r.Body = append(r.Body, toAtom(b))
	}
	return r, nil
}

// infer builds a Datalog program from the session's rules plus the
// database's relations (EDB) and hierarchies (isa/2), then solves the goal.
func (s *Session) infer(ctx context.Context, st InferStmt) (string, error) {
	db := s.target.Database()
	p := deductive.NewProgram()
	for _, name := range db.Relations() {
		r, err := s.snapshot(ctx, name)
		if err != nil {
			return "", err
		}
		p.AddEDB(name, r)
	}
	for _, d := range db.Hierarchies() {
		h, err := db.Hierarchy(d)
		if err != nil {
			return "", err
		}
		p.AddTaxonomy(h)
	}
	for _, r := range s.rules {
		if err := p.AddRule(r); err != nil {
			return "", err
		}
	}
	goal := toAtom(st.Goal)
	results, err := p.Solve(goal)
	if err != nil {
		return "", err
	}
	// Ground goal: boolean answer.
	ground := true
	for _, t := range goal.Args {
		if t.Var {
			ground = false
			break
		}
	}
	if ground {
		return fmt.Sprintf("%v", len(results) > 0), nil
	}
	if len(results) == 0 {
		return "no derivations", nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d derivations:\n", len(results))
	for _, res := range results {
		var parts []string
		for _, t := range goal.Args {
			if t.Var {
				parts = append(parts, fmt.Sprintf("?%s=%s", t.Name, res[t.Name]))
			}
		}
		fmt.Fprintf(&b, "  %s\n", strings.Join(parts, ", "))
	}
	return b.String(), nil
}

// show renders SHOW statements.
func (s *Session) show(ctx context.Context, st ShowStmt) (string, error) {
	db := s.target.Database()
	switch st.What {
	case "hierarchies":
		return strings.Join(db.Hierarchies(), "\n"), nil
	case "relations":
		return strings.Join(db.Relations(), "\n"), nil
	case "rules":
		if len(s.rules) == 0 {
			return "no rules", nil
		}
		var lines []string
		for _, r := range s.rules {
			lines = append(lines, r.String())
		}
		return strings.Join(lines, "\n"), nil
	case "relation":
		return read(ctx, s, st.Target, Scope{}, func(r *core.Relation) (string, error) { return r.Table(), nil })
	case "views":
		vc, err := s.viewCatalog()
		if err != nil {
			return "", err
		}
		names := vc.ViewNames()
		if len(names) == 0 {
			return "no views", nil
		}
		return strings.Join(names, "\n"), nil
	case "view":
		vc, err := s.viewCatalog()
		if err != nil {
			return "", err
		}
		return vc.ViewStatus(st.Target)
	case "hierarchy":
		h, err := db.Hierarchy(st.Target)
		if err != nil {
			return "", err
		}
		return renderHierarchy(h), nil
	default:
		return "", fmt.Errorf("hql: unknown SHOW %q", st.What)
	}
}

// renderHierarchy prints an indented tree (DAG nodes with several parents
// appear once per parent, marked with *).
func renderHierarchy(h *hierarchy.Hierarchy) string {
	var b strings.Builder
	seen := map[string]bool{}
	var rec func(node string, depth int)
	rec = func(node string, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(node)
		if h.IsInstance(node) {
			b.WriteString(" ·")
		}
		if seen[node] {
			b.WriteString(" *\n")
			return
		}
		seen[node] = true
		b.WriteString("\n")
		children := h.Children(node)
		sort.Strings(children)
		for _, c := range children {
			rec(c, depth+1)
		}
	}
	rec(h.Domain(), 0)
	return b.String()
}
