package shard

import (
	"context"
	"fmt"
	"sync"

	"hrdb/internal/algebra"
	"hrdb/internal/catalog"
	"hrdb/internal/core"
	"hrdb/internal/hql"
	"hrdb/internal/wire"
)

// doneCap bounds the participant's memory of finished transactions. 2PC
// retries arrive within a connection-failover window, not hours later, so a
// small FIFO window is enough to keep COMMIT/APPLY idempotent.
const doneCap = 1024

// Node is the shard-local half of the cluster: it executes shard operations
// against the server's target and acts as the two-phase-commit participant.
// One Node is attached to a server (Options.Shard) and shared by all of its
// connections; all methods are safe for concurrent use (reads go through
// the catalog's own synchronization, participant state is mutex-guarded).
//
// The participant protocol is journal-then-apply: PREPARE validates the
// transaction against a throwaway copy of the current state and journals
// the operations in memory — nothing durable happens, so a participant
// that dies after voting yes restarts clean. COMMIT applies the journaled
// operations through the target's transactional bracket (the WAL on a
// durable server). A COMMIT for a gid the node has never seen — the journal
// died with a crashed process, or this node is a replica promoted after the
// original participant was lost — answers "unknown", and the coordinator
// completes the transaction by re-sending the operations with APPLY. The
// done set makes COMMIT and APPLY idempotent under retries and at-least-once
// delivery.
type Node struct {
	// ID and Count are this shard's index and the cluster's shard count,
	// served to clients by the SHARDMAP verb.
	ID    int
	Count int

	target hql.Target

	mu       sync.Mutex
	pending  map[string][]catalog.TxOp
	done     map[string]bool
	doneFIFO []string
}

// NewNode creates the shard-local executor over a server target.
func NewNode(target hql.Target, id, count int) *Node {
	return &Node{
		ID:      id,
		Count:   count,
		target:  target,
		pending: map[string][]catalog.TxOp{},
		done:    map[string]bool{},
	}
}

// Execute runs one shard operation and returns its reply.
func (n *Node) Execute(ctx context.Context, op wire.ShardOp) (rep wire.ShardReply, err error) {
	db := n.target.Database()
	switch op.Verb {
	case wire.ShardTuples, wire.ShardSelect:
		var r *core.Relation
		if r, err = db.Snapshot(op.Relation); err == nil && op.Verb == wire.ShardSelect {
			conds := make([]algebra.Condition, len(op.Conds))
			for i, c := range op.Conds {
				conds[i] = algebra.Condition{Attr: c[0], Class: c[1]}
			}
			// No per-shard consolidation: subsumption between a shard's local
			// tuples and another shard's globals is resolved after the merge.
			r, err = algebra.SelectContext(ctx, "σ", r, conds...)
		}
		if err == nil {
			rep.Tuples = r.Tuples()
		}
	case wire.ShardEval:
		rep.Verdicts, err = db.HoldsBatch(ctx, op.Relation, op.Items)
	case wire.ShardPrepare:
		err = n.prepare(op.GID, op.Ops)
		rep.Status = fmt.Sprintf("prepared %d", len(op.Ops))
	case wire.ShardCommit:
		rep.Status, err = n.commit(op.GID)
	case wire.ShardAbort:
		n.abort(op.GID)
		rep.Status = "aborted"
	case wire.ShardApply:
		err = n.apply(op.GID, op.Ops)
		rep.Status = "applied"
	default:
		err = fmt.Errorf("shard: unknown operation %q", op.Verb)
	}
	if err != nil {
		return wire.ShardReply{}, err
	}
	return rep, nil
}

// tupleOps refuses a transaction carrying anything but tuple updates: a
// coordinator only ever sends asserts, denies and retracts, and a catalog
// op applied on one shard alone would split the replicated catalog.
func tupleOps(ops []catalog.TxOp) error {
	for _, o := range ops {
		if !catalog.IsTupleOp(o.Kind) {
			return fmt.Errorf("shard: %s is not an assert, deny or retract", o.Kind)
		}
	}
	return nil
}

// prepare validates the transaction and journals it in memory.
func (n *Node) prepare(gid string, ops []catalog.TxOp) error {
	if gid == "" {
		return fmt.Errorf("shard: PREPARE without gid")
	}
	if err := tupleOps(ops); err != nil {
		return err
	}
	if err := n.validate(ops); err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.done[gid] {
		return fmt.Errorf("shard: transaction %s already finished", gid)
	}
	n.pending[gid] = ops
	return nil
}

// validate dry-runs the operations against a throwaway catalog built from
// the live hierarchies (shared read-only) and snapshots of the touched
// relations, so a vote of yes means the real apply cannot fail on this
// state. Two transactions prepared concurrently validate against the same
// base and are not isolated from each other; the coordinator serializes
// its own transactions, and the residual race is documented in
// docs/SHARDING.md.
func (n *Node) validate(ops []catalog.TxOp) error {
	db := n.target.Database()
	tmp := catalog.New()
	tmp.SetPolicy(db.Policy())
	for _, d := range db.Hierarchies() {
		h, err := db.Hierarchy(d)
		if err != nil {
			return err
		}
		if err := tmp.AttachHierarchy(h); err != nil {
			return err
		}
	}
	seen := map[string]bool{}
	for _, o := range ops {
		if seen[o.Relation] {
			continue
		}
		seen[o.Relation] = true
		snap, err := db.Snapshot(o.Relation)
		if err != nil {
			return err
		}
		if err := tmp.AttachRelation(snap); err != nil {
			return err
		}
	}
	return tmp.ApplyOps(ops)
}

// commit durably applies a journaled transaction. "unknown" (with no error)
// tells the coordinator this node has no journal for the gid and needs the
// operations re-sent via APPLY.
func (n *Node) commit(gid string) (string, error) {
	n.mu.Lock()
	if n.done[gid] {
		n.mu.Unlock()
		return "committed", nil
	}
	ops, ok := n.pending[gid]
	n.mu.Unlock()
	if !ok {
		return "unknown", nil
	}
	if err := n.target.ApplyTx(ops); err != nil {
		return "", err
	}
	n.finish(gid)
	return "committed", nil
}

// abort drops a journaled transaction.
func (n *Node) abort(gid string) {
	n.finish(gid)
}

// apply is the commit-recovery fallback: apply re-sent operations unless
// the gid already finished here.
func (n *Node) apply(gid string, ops []catalog.TxOp) error {
	if gid == "" {
		return fmt.Errorf("shard: APPLY without gid")
	}
	if err := tupleOps(ops); err != nil {
		return err
	}
	n.mu.Lock()
	if n.done[gid] {
		n.mu.Unlock()
		return nil
	}
	n.mu.Unlock()
	if err := n.target.ApplyTx(ops); err != nil {
		return err
	}
	n.finish(gid)
	return nil
}

// finish marks a gid done (idempotency guard) and drops its journal entry,
// evicting the oldest done entries beyond doneCap.
func (n *Node) finish(gid string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.pending, gid)
	if n.done[gid] {
		return
	}
	n.done[gid] = true
	n.doneFIFO = append(n.doneFIFO, gid)
	for len(n.doneFIFO) > doneCap {
		delete(n.done, n.doneFIFO[0])
		n.doneFIFO = n.doneFIFO[1:]
	}
}

// PendingCount reports the number of journaled-but-undecided transactions
// (exposed for tests and server stats).
func (n *Node) PendingCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.pending)
}
