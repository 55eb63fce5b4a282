package shard

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

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

// Cluster is the scatter-gather coordinator: an hql.Session whose target
// is N shard primaries. The Session executes every statement as it does on
// one node — transactions, algebra, rules, DUMP, replies — and its target
// decides only what is distributed: where each op goes (Apply) and where
// a read's tuples come from (Tuples).
//
// The target's Database is a catalog mirror: the replicated schema
// (hierarchies, relation definitions, policy, modes) with every relation
// left empty — its tuples live on the shards.
type Cluster struct {
	sess *hql.Session
	t    *target
}

// target is the Session's view of the cluster: an hql.Target and
// hql.TupleSource over the shard connections and the mirror.
type target struct {
	conns   []Conn
	mirror  *catalog.Database
	ctx     atomic.Pointer[context.Context] // the running Exec's, for the shard calls of its writes
	gidBase string
	gidSeq  atomic.Uint64
}

// NewCluster builds a coordinator over the given shard connections,
// bootstrapping the catalog mirror from shard 0's DUMP (the catalog is
// replicated, so any shard has all of it; tuple statements in the dump are
// skipped — relations stay empty in the mirror).
func NewCluster(ctx context.Context, conns []Conn) (*Cluster, error) {
	if len(conns) == 0 {
		return nil, errors.New("shard: cluster needs at least one connection")
	}
	t := &target{
		conns:   conns,
		mirror:  catalog.New(),
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
	boot := hql.NewSession(hql.MemTarget{DB: t.mirror})
	for _, st := range stmts {
		switch st.(type) {
		case hql.AssertStmt, hql.RetractStmt, hql.BeginStmt, hql.CommitStmt:
			continue
		}
		if _, err := boot.ExecContext(ctx, hql.Render(st)+";"); err != nil {
			return nil, fmt.Errorf("shard: bootstrap replay: %w", err)
		}
	}
	return &Cluster{sess: hql.NewSession(t), t: t}, nil
}

// ShardCount returns the number of shards the coordinator talks to.
func (c *Cluster) ShardCount() int { return len(c.t.conns) }

// Close closes every shard connection, returning the first error.
func (c *Cluster) Close() error {
	var first error
	for _, cn := range c.t.conns {
		if err := cn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Exec parses and executes an HQL script against the cluster: it is the
// Session's ExecContext, with ctx lent to the target for the shard calls
// of the script's writes. Like the Session, a Cluster is single-goroutine:
// an Exec entered while another runs is refused with hql.ErrSessionBusy.
func (c *Cluster) Exec(ctx context.Context, input string) (string, error) {
	if !c.t.ctx.CompareAndSwap(nil, &ctx) {
		return "", hql.ErrSessionBusy
	}
	defer c.t.ctx.Store(nil)
	return c.sess.ExecContext(ctx, input)
}

// Database returns the catalog mirror.
func (t *target) Database() *catalog.Database { return t.mirror }

// Apply routes one mutation or bracket. A catalog op goes to every shard,
// then to the mirror (broadcast). Tuple ops commit on the shards that hold
// their tuples (commitOps).
func (t *target) Apply(ops []hql.TxOp) ([]string, error) {
	ctx := context.Background()
	if p := t.ctx.Load(); p != nil {
		ctx = *p
	}
	if len(ops) == 1 && !catalog.IsTupleOp(ops[0].Kind) {
		return nil, t.broadcast(ctx, ops[0])
	}
	return t.commitOps(ctx, ops)
}

// broadcast sends a catalog op to every shard as its statement, then
// replays it into the mirror. DDL is not two-phase committed: a shard
// failing mid-broadcast leaves the error with the caller and the catalogs
// divergent until the statement is retried (see docs/SHARDING.md).
func (t *target) broadcast(ctx context.Context, op hql.TxOp) error {
	if op.Kind == catalog.KindExplicate && len(t.conns) > 1 {
		return fmt.Errorf("shard: EXPLICATE %s is not supported on a multi-shard cluster (it rewrites global tuples into local ones that would land on the wrong shard)", op.Relation)
	}
	stmt := hql.RenderOp(op) + ";"
	if _, err := fanout(len(t.conns), func(i int) (string, error) {
		return t.conns[i].Exec(ctx, stmt)
	}); err != nil {
		return err
	}
	if _, err := t.mirror.Apply([]hql.TxOp{op}); err != nil {
		return fmt.Errorf("shard: mirror replay of %q: %w", stmt, err)
	}
	return nil
}

// commitOps commits tuple ops across the cluster. Each local op goes to
// its home shard, each global op to every shard, order preserved per
// shard. One involved shard is a fast path — a rendered BEGIN…COMMIT
// script, atomic under the shard's own WAL bracket, or for a Bare op the
// bare statement it was. Multiple shards run 2PC: PREPARE everywhere
// (validate + journal, nothing applied), then COMMIT everywhere; a
// participant that lost its journal (crash, failover to a promoted
// replica) answers "unknown" and is completed by re-sending its operations
// with APPLY. It returns the exception warnings the shards report for
// this write, each once however many shards report it: a global tuple's
// exception is raised on every shard.
func (t *target) commitOps(ctx context.Context, ops []catalog.TxOp) ([]string, error) {
	n := len(t.conns)
	perShard := make([][]catalog.TxOp, n)
	for _, o := range ops {
		local, err := Placement(t.mirror, o.Relation, o.Values)
		if err != nil {
			return nil, err
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
		return nil, nil
	case 1:
		s := involved[0]
		var b strings.Builder
		for _, o := range perShard[s] {
			b.WriteString(hql.RenderOp(o))
			b.WriteString(";\n")
		}
		script := "BEGIN;\n" + b.String() + "COMMIT;"
		if perShard[s][0].Bare {
			script = b.String()
		}
		out, err := t.conns[s].Exec(ctx, script)
		if err != nil {
			return nil, err
		}
		var warnings []string
		for _, line := range strings.Split(out, "\n") {
			if w, ok := strings.CutPrefix(line, "warning: "); ok {
				warnings = append(warnings, w)
			}
		}
		return warnings, nil
	}

	gid := fmt.Sprintf("%s.%d", t.gidBase, t.gidSeq.Add(1))

	// Phase 1: prepare. Any failure aborts everywhere — nothing was applied.
	_, perr := fanout(len(involved), func(i int) (wire.ShardReply, error) {
		s := involved[i]
		return t.conns[s].ExecShard(ctx, wire.ShardOp{Verb: wire.ShardPrepare, GID: gid, Ops: perShard[s]})
	})
	if perr != nil {
		// The aborts go out even when ctx is what failed the prepare.
		actx := context.WithoutCancel(ctx)
		fanout(len(involved), func(i int) (wire.ShardReply, error) {
			return t.conns[involved[i]].ExecShard(actx, wire.ShardOp{Verb: wire.ShardAbort, GID: gid})
		})
		return nil, perr
	}

	// Phase 2: commit point passed — drive every participant to completion.
	reps, cerr := fanout(len(involved), func(i int) (wire.ShardReply, error) {
		s := involved[i]
		rep, err := t.conns[s].ExecShard(ctx, wire.ShardOp{Verb: wire.ShardCommit, GID: gid})
		if err != nil {
			return rep, fmt.Errorf("shard %d: commit of %s in doubt: %w", s, gid, err)
		}
		if rep.Status == "unknown" {
			if rep, err = t.conns[s].ExecShard(ctx, wire.ShardOp{Verb: wire.ShardApply, GID: gid, Ops: perShard[s]}); err != nil {
				return rep, fmt.Errorf("shard %d: apply of %s in doubt: %w", s, gid, err)
			}
		}
		return rep, nil
	})
	if cerr != nil {
		return nil, cerr
	}
	var warnings []string
	for _, rep := range reps {
		for _, w := range rep.Warnings {
			if !slices.Contains(warnings, w) {
				warnings = append(warnings, w)
			}
		}
	}
	return warnings, nil
}

// Tuples serves every Session read. It starts from the relation's empty
// mirror copy (schema and mode) and gathers the scope's tuples: a point
// read's from the item's home shard alone — global tuples are on every
// shard, so the home shard holds every tuple applicable to the item — and
// any other read's from every shard, global tuples arriving once per shard
// and deduplicating on insert.
func (t *target) Tuples(ctx context.Context, name string, scope hql.Scope) (*core.Relation, error) {
	r, err := t.mirror.Snapshot(name)
	if err != nil {
		return nil, err
	}
	conns := t.conns
	if len(scope.Items) == 1 {
		home := HomeShard(name, scope.Items[0], len(conns))
		conns = conns[home : home+1]
	}
	tuples, err := gather(ctx, conns, wire.ShardOp{Verb: wire.ShardTuples, Relation: name, Items: scope.Items, Conds: scope.Conds})
	if err != nil {
		return nil, err
	}
	for _, tu := range tuples {
		if err := r.Insert(tu.Item, tu.Sign); err != nil {
			return nil, fmt.Errorf("shard: merging %s: %w", name, err)
		}
	}
	return r, nil
}

// gather sends a TUPLES op to every given shard and collects the replies.
func gather(ctx context.Context, conns []Conn, op wire.ShardOp) ([]core.Tuple, error) {
	reps, err := fanout(len(conns), func(i int) (wire.ShardReply, error) {
		return conns[i].ExecShard(ctx, op)
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

// Fingerprint returns the canonical fingerprint of the cluster's logical
// state — its DUMP, fed by Tuples and replayed into one database — equal
// to the fingerprint of a single node holding the same data, which is how
// the chaos tests verify cross-shard atomicity.
func (c *Cluster) Fingerprint(ctx context.Context) (string, error) {
	dump, err := hql.Dump(c.t.mirror, func(name string) (*core.Relation, error) {
		return c.t.Tuples(ctx, name, hql.Scope{})
	})
	if err != nil {
		return "", err
	}
	db := catalog.New()
	if _, err := hql.NewSession(hql.MemTarget{DB: db}).ExecContext(ctx, dump); err != nil {
		return "", fmt.Errorf("shard: replaying the cluster's dump: %w", err)
	}
	return storage.Fingerprint(db), nil
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
