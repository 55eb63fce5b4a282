package shard

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
	"hrdb/internal/hql"
	"hrdb/internal/wire"
)

// testNode builds a shard node over a fresh in-memory catalog seeded with
// the Animal hierarchy and the Flies relation.
func testNode(t *testing.T) (*Node, *catalog.Database) {
	t.Helper()
	db := catalog.New()
	sess := hql.NewSession(hql.MemTarget{DB: db})
	script := `CREATE HIERARCHY Animal;
CLASS Bird UNDER Animal IN Animal;
CLASS Penguin UNDER Bird IN Animal;
INSTANCE Tweety UNDER Bird IN Animal;
INSTANCE Paul UNDER Penguin IN Animal;
CREATE RELATION Flies (Creature: Animal);`
	if _, err := sess.Exec(script); err != nil {
		t.Fatal(err)
	}
	return NewNode(hql.MemTarget{DB: db}, 0, 1), db
}

// exec runs op on the node through both payload codecs, as a server does.
func exec(t *testing.T, n *Node, op wire.ShardOp) wire.ShardReply {
	t.Helper()
	sent, err := wire.ParseShardOp(wire.AppendShardOp(nil, op))
	if err != nil {
		t.Fatalf("op %+v does not survive its codec: %v", op, err)
	}
	rep, err := n.Execute(context.Background(), sent)
	if err != nil {
		t.Fatalf("Execute(%+v): %v", op, err)
	}
	got, err := wire.ParseShardReply(wire.ShardReplyPayload(rep))
	if err != nil {
		t.Fatalf("reply %+v does not survive its codec: %v", rep, err)
	}
	return got
}

func status(t *testing.T, n *Node, op wire.ShardOp) string {
	t.Helper()
	return exec(t, n, op).Status
}

func TestNodeTuplesSelectEval(t *testing.T) {
	n, db := testNode(t)
	if err := db.ApplyOps([]catalog.TxOp{
		{Kind: "assert", Relation: "Flies", Values: []string{"Bird"}},
		{Kind: "deny", Relation: "Flies", Values: []string{"Penguin"}},
	}); err != nil {
		t.Fatal(err)
	}

	tuples := exec(t, n, wire.ShardOp{Verb: wire.ShardTuples, Relation: "Flies"}).Tuples
	if len(tuples) != 2 {
		t.Fatalf("want 2 stored tuples, got %v", tuples)
	}

	// A point read's scope is the tuples applicable to the item; a
	// selection's, the tuples overlapping its region.
	got := exec(t, n, wire.ShardOp{Verb: wire.ShardTuples, Relation: "Flies", Items: []core.Item{{"Paul"}}}).Tuples
	snap, err := db.Snapshot("Flies")
	if err != nil {
		t.Fatal(err)
	}
	if want := snap.Applicable(core.Item{"Paul"}); !reflect.DeepEqual(got, want) {
		t.Fatalf("tuples applicable to Paul %v, want %v", got, want)
	}
	got = exec(t, n, wire.ShardOp{Verb: wire.ShardTuples, Relation: "Flies", Conds: [][2]string{{"Creature", "Penguin"}}}).Tuples
	if want := snap.TuplesOverlapping([]core.Item{{"Penguin"}}); !reflect.DeepEqual(got, want) || len(want) != 2 {
		t.Fatalf("tuples overlapping Penguin %v, want both stored tuples %v", got, want)
	}
}

// holdDeny holds a bare deny after its write has applied and before its
// session renders the reply, until release is closed; applied announces
// that the deny has reached that point. A node's transactions are never
// bare, so they pass straight through.
type holdDeny struct {
	hql.Target
	applied chan struct{}
	release chan struct{}
}

func (h holdDeny) Apply(ops []hql.TxOp) ([]string, error) {
	w, err := h.Target.Apply(ops)
	if len(ops) == 1 && ops[0].Bare && ops[0].Kind == catalog.KindDeny {
		h.applied <- struct{}{}
		<-h.release
	}
	return w, err
}

// TestNodeCommitReportsOnlyItsOwnWarnings: a COMMIT carries the exception
// warnings of its own apply, in the reply's Warnings and not in its
// status — none for a clean transaction, even while another local
// session's warn-raising deny has applied but not yet replied.
func TestNodeCommitReportsOnlyItsOwnWarnings(t *testing.T) {
	_, db := testNode(t)
	if _, err := db.Apply([]catalog.TxOp{
		{Kind: catalog.KindAssert, Relation: "Flies", Values: []string{"Bird"}},
		{Kind: catalog.KindSetPolicy, Values: []string{"warn"}},
	}); err != nil {
		t.Fatal(err)
	}
	hold := holdDeny{Target: hql.MemTarget{DB: db}, applied: make(chan struct{}), release: make(chan struct{})}
	n := NewNode(hold, 0, 1)

	type reply struct {
		out string
		err error
	}
	denied := make(chan reply, 1)
	go func() {
		out, err := hql.NewSession(hold).Exec("DENY Flies (Tweety);")
		denied <- reply{out, err}
	}()
	select {
	case <-hold.applied:
	case d := <-denied:
		t.Fatalf("local deny replied %q, %v without being held", d.out, d.err)
	}
	exec(t, n, wire.ShardOp{Verb: wire.ShardPrepare, GID: "clean", Ops: []catalog.TxOp{{Kind: catalog.KindAssert, Relation: "Flies", Values: []string{"Paul"}}}})
	rep := exec(t, n, wire.ShardOp{Verb: wire.ShardCommit, GID: "clean"})
	close(hold.release)
	if rep.Status != "committed" || len(rep.Warnings) != 0 {
		t.Errorf("clean COMMIT replied %q with warnings %q, want none", rep.Status, rep.Warnings)
	}
	if d := <-denied; d.err != nil || !strings.Contains(d.out, "warning: exception: (Tweety)") {
		t.Fatalf("local deny replied %q, %v; want its warning", d.out, d.err)
	}

	exec(t, n, wire.ShardOp{Verb: wire.ShardPrepare, GID: "warns", Ops: []catalog.TxOp{{Kind: catalog.KindDeny, Relation: "Flies", Values: []string{"Penguin"}}}})
	rep = exec(t, n, wire.ShardOp{Verb: wire.ShardCommit, GID: "warns"})
	if rep.Status != "committed" || len(rep.Warnings) != 1 || !strings.Contains(rep.Warnings[0], "(Penguin)") {
		t.Fatalf("COMMIT raising an exception replied %q with warnings %q, want its one warning", rep.Status, rep.Warnings)
	}
}

func TestNodePrepareCommitLifecycle(t *testing.T) {
	n, db := testNode(t)
	ops := []catalog.TxOp{{Kind: "assert", Relation: "Flies", Values: []string{"Tweety"}}}

	prep := wire.ShardOp{Verb: wire.ShardPrepare, GID: "g1", Ops: ops}
	if out := status(t, n, prep); out != "prepared 1" {
		t.Fatalf("prepare: %q", out)
	}
	if n.PendingCount() != 1 {
		t.Fatalf("pending %d", n.PendingCount())
	}
	// PREPARE journals only: nothing visible yet.
	r, _ := db.Relation("Flies")
	if len(r.Tuples()) != 0 {
		t.Fatal("prepare must not apply")
	}

	commit := wire.ShardOp{Verb: wire.ShardCommit, GID: "g1"}
	if out := status(t, n, commit); out != "committed" {
		t.Fatalf("commit: %q", out)
	}
	if len(r.Tuples()) != 1 {
		t.Fatal("commit must apply the journaled ops")
	}
	// Idempotent under retries.
	if out := status(t, n, commit); out != "committed" {
		t.Fatalf("duplicate commit: %q", out)
	}
	if len(r.Tuples()) != 1 {
		t.Fatal("duplicate commit must not re-apply")
	}
	// A finished gid cannot be re-prepared.
	if _, err := n.Execute(context.Background(), prep); err == nil {
		t.Fatal("re-prepare of a finished gid must fail")
	}
}

func TestNodeCommitUnknownAndApplyFallback(t *testing.T) {
	n, db := testNode(t)
	commit := wire.ShardOp{Verb: wire.ShardCommit, GID: "lost"}
	if out := status(t, n, commit); out != "unknown" {
		t.Fatalf("commit of unseen gid: %q", out)
	}
	// The coordinator answers "unknown" with APPLY.
	ops := []catalog.TxOp{{Kind: "assert", Relation: "Flies", Values: []string{"Tweety"}}}
	apply := wire.ShardOp{Verb: wire.ShardApply, GID: "lost", Ops: ops}
	if out := status(t, n, apply); out != "applied" {
		t.Fatalf("apply: %q", out)
	}
	r, _ := db.Relation("Flies")
	if len(r.Tuples()) != 1 {
		t.Fatal("apply must apply")
	}
	// APPLY is idempotent too (the retry path retries it blindly).
	if out := status(t, n, apply); out != "applied" {
		t.Fatalf("duplicate apply: %q", out)
	}
	if len(r.Tuples()) != 1 {
		t.Fatal("duplicate apply must not re-apply")
	}
	// And a late COMMIT for the now-finished gid answers from the done set.
	if out := status(t, n, commit); out != "committed" {
		t.Fatalf("late commit: %q", out)
	}
}

func TestNodeAbortDropsJournal(t *testing.T) {
	n, db := testNode(t)
	ops := []catalog.TxOp{{Kind: "assert", Relation: "Flies", Values: []string{"Tweety"}}}
	exec(t, n, wire.ShardOp{Verb: wire.ShardPrepare, GID: "g2", Ops: ops})
	if out := status(t, n, wire.ShardOp{Verb: wire.ShardAbort, GID: "g2"}); out != "aborted" {
		t.Fatalf("abort: %q", out)
	}
	if n.PendingCount() != 0 {
		t.Fatal("abort must drop the journal entry")
	}
	r, _ := db.Relation("Flies")
	if len(r.Tuples()) != 0 {
		t.Fatal("abort must not apply")
	}
}

func TestNodePrepareValidates(t *testing.T) {
	n, db := testNode(t)
	// Unknown value caught at prepare time, not commit time.
	prep := wire.ShardOp{Verb: wire.ShardPrepare, GID: "g3", Ops: []catalog.TxOp{
		{Kind: "assert", Relation: "Flies", Values: []string{"Bigfoot"}},
	}}
	if _, err := n.Execute(context.Background(), prep); err == nil {
		t.Fatal("unknown value must vote no")
	}
	if n.PendingCount() != 0 {
		t.Fatal("a failed prepare must not journal")
	}
	r, _ := db.Relation("Flies")
	if len(r.Tuples()) != 0 {
		t.Fatal("validation is a dry run: live state untouched")
	}
	// Missing relation votes no too.
	prep = wire.ShardOp{Verb: wire.ShardPrepare, GID: "g4", Ops: []catalog.TxOp{
		{Kind: "assert", Relation: "NoSuch", Values: []string{"Tweety"}},
	}}
	if _, err := n.Execute(context.Background(), prep); err == nil {
		t.Fatal("missing relation must vote no")
	}
}

func TestNodeDoneSetEviction(t *testing.T) {
	n, _ := testNode(t)
	// Finish doneCap+10 gids via prepare/abort (no state applied).
	for i := 0; i < doneCap+10; i++ {
		gid := fmt.Sprintf("g%d", i)
		exec(t, n, wire.ShardOp{Verb: wire.ShardPrepare, GID: gid})
		exec(t, n, wire.ShardOp{Verb: wire.ShardAbort, GID: gid})
	}
	n.mu.Lock()
	doneLen, fifoLen := len(n.done), len(n.doneFIFO)
	n.mu.Unlock()
	if doneLen != doneCap || fifoLen != doneCap {
		t.Fatalf("done set not bounded: %d/%d (cap %d)", doneLen, fifoLen, doneCap)
	}
	// The oldest gid was evicted, so a COMMIT for it answers "unknown" again.
	if out := status(t, n, wire.ShardOp{Verb: wire.ShardCommit, GID: "g0"}); out != "unknown" {
		t.Fatalf("evicted gid: %q", out)
	}
}

func TestNodeRejectsMalformedOps(t *testing.T) {
	n, _ := testNode(t)
	for _, op := range []wire.ShardOp{
		{Verb: "FROBNICATE", Relation: "x"},
		{Verb: wire.ShardPrepare}, // no gid
		{Verb: wire.ShardApply},   // no gid
		{Verb: wire.ShardTuples},  // no relation
		{Verb: wire.ShardTuples, Relation: "NoSuch", Conds: [][2]string{{"Creature", "Bird"}}},   // unknown relation
		{Verb: wire.ShardTuples, Relation: "Flies", Conds: [][2]string{{"Creature", "Bigfoot"}}}, // unknown class
		// Only tuple updates travel in a shard transaction.
		{Verb: wire.ShardPrepare, GID: "g", Ops: []catalog.TxOp{{Kind: "add_class", Relation: "Animal", Values: []string{"Fish"}}}},
		{Verb: wire.ShardApply, GID: "g", Ops: []catalog.TxOp{{Kind: "drop_relation", Relation: "Flies"}}},
	} {
		if _, err := n.Execute(context.Background(), op); err == nil {
			t.Fatalf("op %+v must fail", op)
		}
	}
	if n.PendingCount() != 0 {
		t.Fatal("a refused op journaled")
	}
}
