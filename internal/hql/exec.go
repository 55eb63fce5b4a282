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
// ApplyTx call; an empty list applies nothing and returns only the target's
// refusal to be written, if it has one.
type Target interface {
	Database() *catalog.Database
	ApplyTx(ops []TxOp) error
}

// MemTarget adapts a bare catalog.Database to the Target interface.
type MemTarget struct{ DB *catalog.Database }

// Database returns the wrapped database.
func (m MemTarget) Database() *catalog.Database { return m.DB }

// ApplyTx implements Target.
func (m MemTarget) ApplyTx(ops []TxOp) error { return m.DB.ApplyOps(ops) }

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
		return s.mutate(op, ack)
	}
	db := s.target.Database()
	switch st := st.(type) {
	case HoldsStmt:
		v, err := s.evaluateOrView(st.Relation, st.Values)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%v", v.Value), nil

	case WhyStmt:
		v, err := s.evaluateOrView(st.Relation, st.Values)
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
		r, err := s.snapshotOrView(st.Relation)
		if err != nil {
			return "", err
		}
		conds := make([]algebra.Condition, len(st.Conds))
		for i, c := range st.Conds {
			conds[i] = algebra.Condition{Attr: c[0], Class: c[1]}
		}
		name := st.As
		if name == "" {
			name = "σ(" + st.Relation + ")"
		}
		res, err := algebra.SelectContext(ctx, name, r, conds...)
		if err != nil {
			return "", err
		}
		res = res.Consolidate()
		if st.As != "" {
			if err := s.attach(res); err != nil {
				return "", err
			}
		}
		return res.Table(), nil

	case ExplainStmt:
		switch inner := st.Inner.(type) {
		case SelectStmt:
			r, err := db.Snapshot(inner.Relation)
			if err != nil {
				return "", err
			}
			conds := make([]algebra.Condition, len(inner.Conds))
			for i, c := range inner.Conds {
				conds[i] = algebra.Condition{Attr: c[0], Class: c[1]}
			}
			plan, err := algebra.PlanSelect(r, conds...)
			if err != nil {
				return "", err
			}
			return plan.String(), nil
		case BinOpStmt:
			left, err := db.Snapshot(inner.Left)
			if err != nil {
				return "", err
			}
			right, err := db.Snapshot(inner.Right)
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
		r, err := s.snapshotOrView(st.Relation)
		if err != nil {
			return "", err
		}
		ext, err := r.ExtensionContext(ctx)
		if err != nil {
			return "", err
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s: %d atomic items\n", st.Relation, len(ext))
		for _, it := range ext {
			fmt.Fprintf(&b, "  %s\n", it)
		}
		return b.String(), nil

	case ConsolidateStmt:
		if _, err := s.mutate(TxOp{Kind: catalog.KindConsolidate, Relation: st.Relation}, ""); err != nil {
			return "", err
		}
		r, err := db.Snapshot(st.Relation)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("consolidated %s (%d tuples remain)", st.Relation, r.Len()), nil

	case ExplicateStmt:
		if _, err := s.mutate(TxOp{Kind: catalog.KindExplicate, Relation: st.Relation, Values: st.Attrs}, ""); err != nil {
			return "", err
		}
		r, err := db.Snapshot(st.Relation)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("explicated %s (%d tuples)", st.Relation, r.Len()), nil

	case BinOpStmt:
		left, err := s.snapshotOrView(st.Left)
		if err != nil {
			return "", err
		}
		right, err := s.snapshotOrView(st.Right)
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
		r, err := s.snapshotOrView(st.Relation)
		if err != nil {
			return "", err
		}
		res, err := algebra.ProjectContext(ctx, st.As, r, st.Attrs...)
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
		return s.infer(st)

	case CountStmt:
		r, err := s.snapshotOrView(st.Relation)
		if err != nil {
			return "", err
		}
		counts, err := algebra.CountContext(ctx, r, st.By...)
		if err != nil {
			return "", err
		}
		return algebra.FormatCounts(st.Relation, st.By, counts), nil

	case DumpStmt:
		return Dump(db)

	case ShowStmt:
		return s.show(st)

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
		if err := s.target.ApplyTx(ops); err != nil {
			return "", err
		}
		return s.renderWarnings(fmt.Sprintf("committed %d operations", len(ops))), nil

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

// opOf maps a statement that stands for one mutation and needs nothing
// read back to its op and the line that acknowledges it; any other
// statement yields the zero op.
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
			return op, "", fmt.Errorf("hql: unknown mode %q (want off_path|on_path|none)", st.Mode)
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

// mutate is where a statement becomes a write: inside BEGIN…COMMIT a tuple
// update is staged for the bracket's one ApplyTx, anything else reaches the
// target as a bare batch of one.
func (s *Session) mutate(op TxOp, ack string) (string, error) {
	if s.inTx && catalog.IsTupleOp(op.Kind) {
		s.txOps = append(s.txOps, op)
		return fmt.Sprintf("staged %s on %s", op.Kind, op.Relation), nil
	}
	op.Bare = true
	if err := s.target.ApplyTx([]TxOp{op}); err != nil {
		return "", err
	}
	if op.Kind == catalog.KindAssert || op.Kind == catalog.KindDeny {
		return s.renderWarnings(ack), nil
	}
	return ack, nil
}

// attach registers a derived `… AS name` result in the target's catalog.
// The relation lives in memory only, so no op carries it; the empty ApplyTx
// asks the target whether it may be written at all (a read-only replica
// refuses).
func (s *Session) attach(res *core.Relation) error {
	if err := s.target.ApplyTx(nil); err != nil {
		return err
	}
	return s.target.Database().AttachRelation(res)
}

// renderWarnings appends any pending exception warnings to a result line.
func (s *Session) renderWarnings(base string) string {
	w := s.target.Database().Warnings()
	if len(w) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	for _, msg := range w {
		b.WriteString("\nwarning: ")
		b.WriteString(msg)
	}
	return b.String()
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
		return "", fmt.Errorf("hql: no hierarchy contains parents %v", parents)
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
func (s *Session) infer(st InferStmt) (string, error) {
	db := s.target.Database()
	p := deductive.NewProgram()
	for _, name := range db.Relations() {
		r, err := db.Snapshot(name)
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
func (s *Session) show(st ShowStmt) (string, error) {
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
		r, err := s.snapshotOrView(st.Target)
		if err != nil {
			return "", err
		}
		return r.Table(), nil
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
