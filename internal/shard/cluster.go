package shard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hrdb/internal/algebra"
	"hrdb/internal/catalog"
	"hrdb/internal/core"
	"hrdb/internal/hql"
	"hrdb/internal/storage"
	"hrdb/internal/wire"
)

// Conn is what the coordinator needs from a shard connection: full HQL
// execution plus the shard operation side channel. *server.Client and
// *server.Router both satisfy it (the server package imports shard, so the
// dependency points this way).
type Conn interface {
	Exec(ctx context.Context, input string) (string, error)
	ExecShard(ctx context.Context, op wire.ShardOp) (wire.ShardReply, error)
	Close() error
}

// ErrClusterBusy reports concurrent use of a Cluster. Like hql.Session, a
// Cluster holds transaction state and is strictly single-goroutine; the
// CAS guard makes interleaved Exec calls fail loudly.
var ErrClusterBusy = errors.New("shard: cluster is single-goroutine; concurrent Exec rejected")

// Cluster is the scatter-gather coordinator: an HQL session whose target is
// N shard primaries. It classifies each statement with hql.ShardOf and
//
//   - broadcasts catalog mutations to every shard,
//   - routes keyed statements to the owning shard (local tuples) or through
//     two-phase commit (global tuples),
//   - scatters per-tuple reads and merges at the coordinator,
//   - executes multi-relation algebra itself over gathered snapshots.
//
// The coordinator keeps a catalog mirror: the full replicated schema
// (hierarchies, relation definitions, policy, modes) with every base
// relation left empty, plus the materialized derived relations created by
// AS clauses, JOIN/UNION/…, and PROJECT — those live only here, not on the
// shards. Transactions buffer on the coordinator exactly like a Session
// and commit through commitOps.
type Cluster struct {
	conns   []Conn
	mirror  *catalog.Database
	msess   *hql.Session    // session over the mirror, used to replay catalog statements
	derived map[string]bool // relations that exist only in the mirror
	rules   []string        // rendered RULE statements, replayed for INFER
	inTx    bool
	txOps   []catalog.TxOp
	busy    atomic.Bool
	gidBase string
	gidSeq  atomic.Uint64
}

// NewCluster builds a coordinator over the given shard connections,
// bootstrapping the catalog mirror from shard 0's DUMP (the catalog is
// replicated, so any shard has all of it; tuple statements in the dump are
// skipped — base relations stay empty in the mirror).
func NewCluster(ctx context.Context, conns []Conn) (*Cluster, error) {
	if len(conns) == 0 {
		return nil, errors.New("shard: cluster needs at least one connection")
	}
	mirror := catalog.New()
	c := &Cluster{
		conns:   conns,
		mirror:  mirror,
		msess:   hql.NewSession(hql.MemTarget{DB: mirror}),
		derived: map[string]bool{},
		gidBase: fmt.Sprintf("g%x", time.Now().UnixNano()),
	}
	dump, err := conns[0].Exec(ctx, "DUMP;")
	if err != nil {
		return nil, fmt.Errorf("shard: bootstrap dump: %w", err)
	}
	stmts, err := hql.Parse(dump)
	if err != nil {
		return nil, fmt.Errorf("shard: bootstrap dump does not parse: %w", err)
	}
	for _, st := range stmts {
		switch st.(type) {
		case hql.AssertStmt, hql.RetractStmt, hql.BeginStmt, hql.CommitStmt:
			continue
		}
		if _, err := c.msess.ExecContext(ctx, hql.Render(st)+";"); err != nil {
			return nil, fmt.Errorf("shard: bootstrap replay: %w", err)
		}
	}
	return c, nil
}

// ShardCount returns the number of shards the coordinator talks to.
func (c *Cluster) ShardCount() int { return len(c.conns) }

// Close closes every shard connection, returning the first error.
func (c *Cluster) Close() error {
	var first error
	for _, cn := range c.conns {
		if err := cn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Exec parses and executes an HQL script against the cluster, mirroring
// hql.Session's output format statement for statement.
func (c *Cluster) Exec(ctx context.Context, input string) (string, error) {
	if !c.busy.CompareAndSwap(false, true) {
		return "", ErrClusterBusy
	}
	defer c.busy.Store(false)
	stmts, err := hql.Parse(input)
	if err != nil {
		return "", err
	}
	var out strings.Builder
	for _, st := range stmts {
		if err := ctx.Err(); err != nil {
			return out.String(), err
		}
		res, err := c.exec(ctx, st)
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

// exec dispatches one statement by its shard routing class.
func (c *Cluster) exec(ctx context.Context, st hql.Stmt) (string, error) {
	info := hql.ShardOf(st)

	// Statements over coordinator-only derived relations never leave the
	// mirror, whatever their routing class. Keyed/broadcast statements name
	// their relation in Relation; scatter reads carry it in Relations.
	if info.Relation != "" && c.derived[info.Relation] {
		return c.mirrorExec(ctx, st)
	}
	if len(info.Relations) > 0 {
		allDerived := true
		for _, r := range info.Relations {
			if !c.derived[r] {
				allDerived = false
				break
			}
		}
		if allDerived {
			out, err := c.mirrorExec(ctx, st)
			if err == nil {
				// A SELECT … AS over a derived relation materializes another
				// derived relation inside the mirror session; track it so
				// later statements stay on the mirror too.
				if sel, ok := st.(hql.SelectStmt); ok && sel.As != "" {
					c.derived[sel.As] = true
				}
			}
			return out, err
		}
	}

	switch info.Route {
	case hql.RouteBroadcast:
		return c.broadcast(ctx, st)
	case hql.RouteKeyed:
		return c.keyed(ctx, st, info)
	case hql.RouteScatter:
		return c.scatter(ctx, st)
	case hql.RouteCoordinator:
		return c.coordinate(ctx, st)
	default:
		return "", fmt.Errorf("shard: unhandled route %v", info.Route)
	}
}

// mirrorExec runs a statement only against the coordinator's mirror.
func (c *Cluster) mirrorExec(ctx context.Context, st hql.Stmt) (string, error) {
	out, err := c.msess.ExecContext(ctx, hql.Render(st)+";")
	return strings.TrimSuffix(out, "\n"), err
}

// broadcast sends a catalog mutation to every shard, then replays it into
// the mirror. DDL is not two-phase committed: a shard failing mid-broadcast
// leaves the error with the caller and the catalogs divergent until the
// statement is retried (see docs/SHARDING.md).
func (c *Cluster) broadcast(ctx context.Context, st hql.Stmt) (string, error) {
	if ex, ok := st.(hql.ExplicateStmt); ok && len(c.conns) > 1 {
		return "", fmt.Errorf("shard: EXPLICATE %s is not supported on a multi-shard cluster (it rewrites global tuples into local ones that would land on the wrong shard)", ex.Relation)
	}
	rendered := hql.Render(st) + ";"
	resps, err := fanout(len(c.conns), func(i int) (string, error) {
		return c.conns[i].Exec(ctx, rendered)
	})
	if err != nil {
		return "", err
	}
	if _, err := c.msess.ExecContext(ctx, rendered); err != nil {
		return "", fmt.Errorf("shard: mirror replay of %q: %w", rendered, err)
	}
	return strings.TrimSuffix(resps[0], "\n"), nil
}

// keyed routes a single-tuple statement. Reads go to the item's home shard
// (global tuples are replicated everywhere, so the home shard always sees
// every applicable tuple). Writes go to the home shard when the tuple is
// local, and through two-phase commit when it is global; inside an open
// transaction they buffer on the coordinator instead.
func (c *Cluster) keyed(ctx context.Context, st hql.Stmt, info hql.ShardInfo) (string, error) {
	rendered := hql.Render(st) + ";"
	switch st := st.(type) {
	case hql.HoldsStmt, hql.WhyStmt:
		home := HomeShard(info.Relation, info.Values, len(c.conns))
		out, err := c.conns[home].Exec(ctx, rendered)
		return strings.TrimSuffix(out, "\n"), err

	case hql.AssertStmt:
		kind := catalog.KindAssert
		if !st.Sign {
			kind = catalog.KindDeny
		}
		if c.inTx {
			c.txOps = append(c.txOps, catalog.TxOp{Kind: kind, Relation: st.Relation, Values: st.Values})
			return fmt.Sprintf("staged %s on %s", kind, st.Relation), nil
		}
		return c.keyedWrite(ctx, rendered, catalog.TxOp{Kind: kind, Relation: st.Relation, Values: st.Values, Bare: true},
			func() string {
				past := "asserted"
				if !st.Sign {
					past = "denied"
				}
				return fmt.Sprintf("%s %s(%s)", past, st.Relation, strings.Join(st.Values, ", "))
			})

	case hql.RetractStmt:
		if c.inTx {
			c.txOps = append(c.txOps, catalog.TxOp{Kind: catalog.KindRetract, Relation: st.Relation, Values: st.Values})
			return fmt.Sprintf("staged retract on %s", st.Relation), nil
		}
		return c.keyedWrite(ctx, rendered, catalog.TxOp{Kind: catalog.KindRetract, Relation: st.Relation, Values: st.Values, Bare: true},
			func() string {
				return fmt.Sprintf("retracted %s(%s)", st.Relation, strings.Join(st.Values, ", "))
			})

	default:
		return "", fmt.Errorf("shard: unhandled keyed statement %T", st)
	}
}

// keyedWrite applies one autocommit write — op is marked Bare: local tuples
// execute as plain HQL on their home shard (whose response carries any
// policy warnings); global tuples commit everywhere via 2PC, where the flag
// makes every shard refuse to flip a stored sign as the single node does,
// with the success line built locally (per-shard warnings are not
// aggregated — documented caveat).
func (c *Cluster) keyedWrite(ctx context.Context, rendered string, op catalog.TxOp, okLine func() string) (string, error) {
	local, err := Placement(c.mirror, op.Relation, op.Values)
	if err != nil {
		return "", err
	}
	if local {
		home := HomeShard(op.Relation, op.Values, len(c.conns))
		out, err := c.conns[home].Exec(ctx, rendered)
		return strings.TrimSuffix(out, "\n"), err
	}
	if err := c.commitOps(ctx, []catalog.TxOp{op}); err != nil {
		return "", err
	}
	return okLine(), nil
}

// scatter fans a per-tuple read out to every shard and merges the results.
func (c *Cluster) scatter(ctx context.Context, st hql.Stmt) (string, error) {
	switch st := st.(type) {
	case hql.SelectStmt:
		snap, err := c.mirror.Snapshot(st.Relation)
		if err != nil {
			return "", err
		}
		op := wire.ShardOp{Verb: wire.ShardSelect, Relation: st.Relation, Conds: st.Conds}
		reps, err := fanout(len(c.conns), func(i int) (wire.ShardReply, error) {
			return c.conns[i].ExecShard(ctx, op)
		})
		if err != nil {
			return "", err
		}
		name := st.As
		if name == "" {
			name = "σ(" + st.Relation + ")"
		}
		res := core.NewRelation(name, snap.Schema())
		res.SetMode(snap.Mode())
		for _, rep := range reps {
			for _, t := range rep.Tuples {
				if err := res.Insert(t.Item, t.Sign); err != nil {
					return "", fmt.Errorf("shard: merging %s: %w", st.Relation, err)
				}
			}
		}
		res = res.Consolidate()
		if st.As != "" {
			if err := c.mirror.AttachRelation(res); err != nil {
				return "", err
			}
			c.derived[st.As] = true
		}
		return res.Table(), nil

	case hql.ExtensionStmt:
		r, err := c.relationSnapshot(ctx, st.Relation)
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

	case hql.CountStmt:
		r, err := c.relationSnapshot(ctx, st.Relation)
		if err != nil {
			return "", err
		}
		counts, err := algebra.CountContext(ctx, r, st.By...)
		if err != nil {
			return "", err
		}
		return algebra.FormatCounts(st.Relation, st.By, counts), nil

	default:
		return "", fmt.Errorf("shard: unhandled scatter statement %T", st)
	}
}

// coordinate executes coordinator-local statements: multi-relation algebra
// over gathered snapshots, session state, and whole-database views.
func (c *Cluster) coordinate(ctx context.Context, st hql.Stmt) (string, error) {
	switch st := st.(type) {
	case hql.BinOpStmt:
		left, err := c.relationSnapshot(ctx, st.Left)
		if err != nil {
			return "", err
		}
		right, err := c.relationSnapshot(ctx, st.Right)
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
		default:
			err = fmt.Errorf("shard: unknown operator %q", st.Op)
		}
		if err != nil {
			return "", err
		}
		if err := c.mirror.AttachRelation(res); err != nil {
			return "", err
		}
		c.derived[st.As] = true
		return res.Table(), nil

	case hql.ProjectStmt:
		r, err := c.relationSnapshot(ctx, st.Relation)
		if err != nil {
			return "", err
		}
		res, err := algebra.ProjectContext(ctx, st.As, r, st.Attrs...)
		if err != nil {
			return "", err
		}
		if err := c.mirror.AttachRelation(res); err != nil {
			return "", err
		}
		c.derived[st.As] = true
		return res.Table(), nil

	case hql.ShowStmt:
		switch st.What {
		case "relation":
			r, err := c.relationSnapshot(ctx, st.Target)
			if err != nil {
				return "", err
			}
			return r.Table(), nil
		case "rules":
			return c.withRules(ctx, catalog.New(), "SHOW RULES;")
		default: // hierarchies, relations, hierarchy — all answerable from the mirror
			return c.mirrorExec(ctx, st)
		}

	case hql.RuleStmt:
		rendered := hql.Render(st) + ";"
		probe := hql.NewSession(hql.MemTarget{DB: catalog.New()})
		out, err := probe.ExecContext(ctx, rendered)
		if err != nil {
			return "", err
		}
		c.rules = append(c.rules, rendered)
		return strings.TrimSuffix(out, "\n"), nil

	case hql.InferStmt:
		m, err := c.merged(ctx)
		if err != nil {
			return "", err
		}
		return c.withRules(ctx, m, hql.Render(st)+";")

	case hql.DumpStmt:
		m, err := c.merged(ctx)
		if err != nil {
			return "", err
		}
		return hql.Dump(m)

	case hql.ExplainStmt:
		switch inner := st.Inner.(type) {
		case hql.SelectStmt:
			r, err := c.relationSnapshot(ctx, inner.Relation)
			if err != nil {
				return "", err
			}
			conds := make([]algebra.Condition, len(inner.Conds))
			for i, cd := range inner.Conds {
				conds[i] = algebra.Condition{Attr: cd[0], Class: cd[1]}
			}
			plan, err := algebra.PlanSelect(r, conds...)
			if err != nil {
				return "", err
			}
			return plan.String(), nil
		case hql.BinOpStmt:
			left, err := c.relationSnapshot(ctx, inner.Left)
			if err != nil {
				return "", err
			}
			right, err := c.relationSnapshot(ctx, inner.Right)
			if err != nil {
				return "", err
			}
			plan, err := algebra.PlanBinOp(inner.Op, left, right)
			if err != nil {
				return "", err
			}
			return plan.String(), nil
		}
		return "", fmt.Errorf("shard: EXPLAIN: unsupported statement %T", st.Inner)

	case hql.BeginStmt:
		if c.inTx {
			return "", hql.ErrInTx
		}
		c.inTx = true
		c.txOps = nil
		return "transaction started", nil

	case hql.CommitStmt:
		if !c.inTx {
			return "", hql.ErrNoTx
		}
		ops := c.txOps
		c.inTx = false
		c.txOps = nil
		if err := c.commitOps(ctx, ops); err != nil {
			return "", err
		}
		return fmt.Sprintf("committed %d operations", len(ops)), nil

	case hql.RollbackStmt:
		if !c.inTx {
			return "", hql.ErrNoTx
		}
		n := len(c.txOps)
		c.inTx = false
		c.txOps = nil
		return fmt.Sprintf("rolled back %d operations", n), nil

	default:
		return "", fmt.Errorf("shard: unhandled coordinator statement %T", st)
	}
}

// withRules replays the coordinator's rules into a fresh session over db,
// then executes the final statement and returns its output.
func (c *Cluster) withRules(ctx context.Context, db *catalog.Database, final string) (string, error) {
	sess := hql.NewSession(hql.MemTarget{DB: db})
	for _, r := range c.rules {
		if _, err := sess.ExecContext(ctx, r); err != nil {
			return "", err
		}
	}
	out, err := sess.ExecContext(ctx, final)
	return strings.TrimSuffix(out, "\n"), err
}

// commitOps commits a buffered transaction across the cluster. Each local
// op goes to its home shard, each global op to every shard, order
// preserved per shard. One involved shard is a fast path — a rendered
// BEGIN…COMMIT script, atomic under the shard's own WAL bracket, or for a
// Bare op the bare statement it was. Multiple
// shards run 2PC: PREPARE everywhere (validate + journal, nothing
// applied), then COMMIT everywhere; a participant that lost its journal
// (crash, failover to a promoted replica) answers "unknown" and is
// completed by re-sending its operations with APPLY.
func (c *Cluster) commitOps(ctx context.Context, ops []catalog.TxOp) error {
	n := len(c.conns)
	perShard := make([][]catalog.TxOp, n)
	for _, o := range ops {
		local, err := Placement(c.mirror, o.Relation, o.Values)
		if err != nil {
			return err
		}
		if local {
			s := HomeShard(o.Relation, o.Values, n)
			perShard[s] = append(perShard[s], o)
		} else {
			for s := range perShard {
				perShard[s] = append(perShard[s], o)
			}
		}
	}
	var involved []int
	for s, list := range perShard {
		if len(list) > 0 {
			involved = append(involved, s)
		}
	}
	switch len(involved) {
	case 0:
		return nil
	case 1:
		s := involved[0]
		var b strings.Builder
		for _, o := range perShard[s] {
			b.WriteString(renderOp(o))
			b.WriteString(";\n")
		}
		script := "BEGIN;\n" + b.String() + "COMMIT;"
		if perShard[s][0].Bare {
			script = b.String()
		}
		_, err := c.conns[s].Exec(ctx, script)
		return err
	}

	gid := fmt.Sprintf("%s.%d", c.gidBase, c.gidSeq.Add(1))

	// Phase 1: prepare. Any failure aborts everywhere — nothing was applied.
	_, perr := fanout(len(involved), func(i int) (wire.ShardReply, error) {
		s := involved[i]
		return c.conns[s].ExecShard(ctx, wire.ShardOp{Verb: wire.ShardPrepare, GID: gid, Ops: perShard[s]})
	})
	if perr != nil {
		// The aborts go out even when ctx is what failed the prepare.
		actx := context.WithoutCancel(ctx)
		fanout(len(involved), func(i int) (wire.ShardReply, error) {
			return c.conns[involved[i]].ExecShard(actx, wire.ShardOp{Verb: wire.ShardAbort, GID: gid})
		})
		return perr
	}

	// Phase 2: commit point passed — drive every participant to completion.
	_, cerr := fanout(len(involved), func(i int) (wire.ShardReply, error) {
		s := involved[i]
		rep, err := c.conns[s].ExecShard(ctx, wire.ShardOp{Verb: wire.ShardCommit, GID: gid})
		if err != nil {
			return rep, fmt.Errorf("shard %d: commit of %s in doubt: %w", s, gid, err)
		}
		if rep.Status == "unknown" {
			if rep, err = c.conns[s].ExecShard(ctx, wire.ShardOp{Verb: wire.ShardApply, GID: gid, Ops: perShard[s]}); err != nil {
				return rep, fmt.Errorf("shard %d: apply of %s in doubt: %w", s, gid, err)
			}
		}
		return rep, nil
	})
	return cerr
}

// renderOp renders a transaction op as its HQL statement.
func renderOp(o catalog.TxOp) string {
	switch o.Kind {
	case catalog.KindAssert:
		return hql.Render(hql.AssertStmt{Relation: o.Relation, Values: o.Values, Sign: true})
	case catalog.KindDeny:
		return hql.Render(hql.AssertStmt{Relation: o.Relation, Values: o.Values, Sign: false})
	default:
		return hql.Render(hql.RetractStmt{Relation: o.Relation, Values: o.Values})
	}
}

// gather collects a base relation's stored tuples from every shard.
func (c *Cluster) gather(ctx context.Context, rel string) ([]core.Tuple, error) {
	reps, err := fanout(len(c.conns), func(i int) (wire.ShardReply, error) {
		return c.conns[i].ExecShard(ctx, wire.ShardOp{Verb: wire.ShardTuples, Relation: rel})
	})
	if err != nil {
		return nil, err
	}
	var out []core.Tuple
	for _, rep := range reps {
		out = append(out, rep.Tuples...)
	}
	return out, nil
}

// relationSnapshot materializes one relation for coordinator-side algebra:
// derived relations snapshot from the mirror, base relations gather from
// the shards into an empty clone of the mirror's schema carrier.
func (c *Cluster) relationSnapshot(ctx context.Context, name string) (*core.Relation, error) {
	if c.derived[name] {
		return c.mirror.Snapshot(name)
	}
	snap, err := c.mirror.Snapshot(name) // empty: schema + mode carrier
	if err != nil {
		return nil, err
	}
	tuples, err := c.gather(ctx, name)
	if err != nil {
		return nil, err
	}
	for _, t := range tuples {
		if err := snap.Insert(t.Item, t.Sign); err != nil {
			return nil, fmt.Errorf("shard: merging %s: %w", name, err)
		}
	}
	return snap, nil
}

// merged reconstructs the whole logical database on the coordinator: the
// mirror's dump (catalog, derived relations) replayed into a fresh catalog,
// then every base relation's tuples gathered from the shards. Global tuples
// arrive once per shard and dedup on insert.
func (c *Cluster) merged(ctx context.Context) (*catalog.Database, error) {
	dump, err := hql.Dump(c.mirror)
	if err != nil {
		return nil, err
	}
	fresh := catalog.New()
	sess := hql.NewSession(hql.MemTarget{DB: fresh})
	if _, err := sess.ExecContext(ctx, dump); err != nil {
		return nil, fmt.Errorf("shard: replaying mirror dump: %w", err)
	}
	for _, name := range c.mirror.Relations() {
		if c.derived[name] {
			continue
		}
		tuples, err := c.gather(ctx, name)
		if err != nil {
			return nil, err
		}
		r, err := fresh.Relation(name)
		if err != nil {
			return nil, err
		}
		for _, t := range tuples {
			if err := r.Insert(t.Item, t.Sign); err != nil {
				return nil, fmt.Errorf("shard: merging %s: %w", name, err)
			}
		}
	}
	return fresh, nil
}

// Fingerprint returns the canonical fingerprint of the cluster's merged
// logical state — equal to the fingerprint of a single node holding the
// same data, which is how the chaos tests verify cross-shard atomicity.
func (c *Cluster) Fingerprint(ctx context.Context) (string, error) {
	m, err := c.merged(ctx)
	if err != nil {
		return "", err
	}
	return storage.Fingerprint(m), nil
}

// HoldsBatch evaluates items against a relation across the cluster: each
// item is answered by its home shard (correct for class-containing items
// too, since their binders are global and replicated), grouped per shard
// and evaluated with the shards' batch engine.
func (c *Cluster) HoldsBatch(ctx context.Context, rel string, items []core.Item) ([]bool, error) {
	if c.derived[rel] {
		return c.mirror.HoldsBatch(ctx, rel, items)
	}
	n := len(c.conns)
	groups := make([][]core.Item, n)
	idx := make([][]int, n)
	for i, it := range items {
		s := HomeShard(rel, it, n)
		groups[s] = append(groups[s], it)
		idx[s] = append(idx[s], i)
	}
	out := make([]bool, len(items))
	var mu sync.Mutex
	_, err := fanout(n, func(s int) (wire.ShardReply, error) {
		if len(groups[s]) == 0 {
			return wire.ShardReply{}, nil
		}
		rep, err := c.conns[s].ExecShard(ctx, wire.ShardOp{Verb: wire.ShardEval, Relation: rel, Items: groups[s]})
		if err != nil {
			return rep, err
		}
		if len(rep.Verdicts) != len(groups[s]) {
			return rep, fmt.Errorf("shard %d: EVAL returned %d verdicts for %d items", s, len(rep.Verdicts), len(groups[s]))
		}
		mu.Lock()
		for j, v := range rep.Verdicts {
			out[idx[s][j]] = v
		}
		mu.Unlock()
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fanout runs fn(0..n-1) concurrently, returning every result and the
// first error (after all calls finish, so no goroutine outlives the call).
func fanout[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	resps := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return resps, err
		}
	}
	return resps, nil
}
