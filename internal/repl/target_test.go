package repl

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"hrdb/internal/catalog"
	"hrdb/internal/hql"
	"hrdb/internal/storage"
)

// op is a bare batch of one, as a statement issues it.
func op(kind, target string, values ...string) []hql.TxOp {
	return []hql.TxOp{{Kind: kind, Relation: target, Values: values, Bare: true}}
}

// everyOpKind is one script that uses the whole mutation vocabulary — each
// kind as a bare batch of one, plus a transaction of one op that flips a
// stored sign and a transaction of three — ordered so that every batch's
// preconditions are established by the earlier ones. It ends under the
// forbid policy with +Flies(Bird) stored, so DENY Flies(Tweety) is an
// exception.
var everyOpKind = [][]hql.TxOp{
	op(catalog.KindCreateHierarchy, "Animal"),
	op(catalog.KindAddClass, "Animal", "Bird"),
	op(catalog.KindAddClass, "Animal", "Fish"),
	op(catalog.KindAddInstance, "Animal", "Tweety", "Bird"),
	op(catalog.KindAddInstance, "Animal", "Spare", "Fish"),
	op(catalog.KindAddEdge, "Animal", "Fish", "Tweety"),
	op(catalog.KindPrefer, "Animal", "Bird", "Fish"),
	op(catalog.KindCreateRelation, "Flies", "Creature", "Animal"),
	op(catalog.KindCreateRelation, "Flat", "Creature", "Animal"),
	op(catalog.KindCreateRelation, "Scratch", "Creature", "Animal"),
	op(catalog.KindAssert, "Flies", "Bird"),
	op(catalog.KindDeny, "Flies", "Fish"),
	{{Kind: catalog.KindAssert, Relation: "Flies", Values: []string{"Fish"}}},
	op(catalog.KindRetract, "Flies", "Fish"),
	{
		{Kind: catalog.KindAssert, Relation: "Flat", Values: []string{"Bird"}},
		{Kind: catalog.KindAssert, Relation: "Flat", Values: []string{"Tweety"}},
		{Kind: catalog.KindDeny, Relation: "Scratch", Values: []string{"Spare"}},
	},
	op(catalog.KindConsolidate, "Flat"),
	op(catalog.KindExplicate, "Flat", "Creature"),
	op(catalog.KindSetMode, "Flies", "on-path"),
	op(catalog.KindDropRelation, "Scratch"),
	op(catalog.KindDropNode, "Animal", "Spare"),
	op(catalog.KindSetPolicy, "", "forbid"),
}

func applyEveryOpKind(t *testing.T, target hql.Target) {
	t.Helper()
	for _, batch := range everyOpKind {
		if _, err := target.Apply(batch); err != nil {
			t.Fatalf("%v: %v", batch, err)
		}
	}
}

// The same ops reach the same state in memory, through a store's WAL and
// recovery, and through the replication stream.
func TestEveryOpKindMemStoreFollower(t *testing.T) {
	kinds := map[string]bool{}
	for _, batch := range everyOpKind {
		for _, o := range batch {
			kinds[o.Kind] = true
		}
	}
	if len(kinds) != 15 {
		t.Fatalf("script uses %d op kinds, want all 15", len(kinds))
	}

	mem := hql.MemTarget{DB: catalog.New()}
	applyEveryOpKind(t, mem)
	want := storage.Fingerprint(mem.DB)

	dir := t.TempDir()
	st, err := storage.Open(dir)
	must(t, err)
	applyEveryOpKind(t, st)
	must(t, st.Close())
	st, err = storage.Open(dir)
	must(t, err)
	defer st.Close()
	if got := storage.Fingerprint(st.Database()); got != want {
		t.Fatalf("reopened store diverged:\nmemory: %s\nstore:  %s", want, got)
	}
	// SET POLICY forbid was logged, not just acknowledged.
	if err := st.Deny("Flies", "Tweety"); !errors.Is(err, catalog.ErrExceptionForbidden) {
		t.Fatalf("DENY against the inherited value after reopen = %v, want ErrExceptionForbidden", err)
	}

	p := startPrimary(t, PrimaryOptions{HeartbeatInterval: 20 * time.Millisecond})
	rep := startReplica(t, p.srv.Addr())
	applyEveryOpKind(t, p.store)
	waitConverged(t, p.store, rep)
	if got := storage.Fingerprint(rep.Database()); got != want {
		t.Fatalf("follower diverged:\nmemory:   %s\nfollower: %s", want, got)
	}
	if got := rep.Database().Policy(); got != catalog.ForbidExceptions {
		t.Fatalf("follower policy = %v, want forbid", got)
	}
}

// ReplicaTarget refuses every mutation with ErrReadOnlyReplica while
// following and delegates once promoted. The replicas here are constructed
// directly (no network): the adapter only reads db and the promoted flag.

func TestReplicaTargetRefusesAllMutationsUnpromoted(t *testing.T) {
	target := ReplicaTarget{R: &Replica{db: catalog.New()}}
	for _, batch := range everyOpKind {
		if _, err := target.Apply(batch); !errors.Is(err, ErrReadOnlyReplica) {
			t.Errorf("%v on follower = %v, want ErrReadOnlyReplica", batch, err)
		}
	}
	if got := storage.Fingerprint(target.Database()); got != storage.Fingerprint(catalog.New()) {
		t.Fatalf("refused mutations changed the follower: %s", got)
	}

	// A derived `… AS` result is a write to the follower's catalog too: it
	// would shadow a replicated CREATE RELATION of the same name.
	applyEveryOpKind(t, hql.MemTarget{DB: target.Database()})
	sess := hql.NewSession(target)
	if _, err := sess.Exec("SELECT FROM Flies WHERE Creature UNDER Bird AS J;"); !errors.Is(err, ErrReadOnlyReplica) {
		t.Fatalf("SELECT … AS on follower = %v, want ErrReadOnlyReplica", err)
	}
	if got := target.Database().Relations(); !reflect.DeepEqual(got, []string{"Flat", "Flies"}) {
		t.Fatalf("relations on follower = %v, want [Flat Flies]", got)
	}
	if _, err := sess.Exec("SELECT FROM Flies WHERE Creature UNDER Bird;"); err != nil {
		t.Fatalf("plain SELECT on follower: %v", err)
	}
}

func TestReplicaTargetDelegatesWhenPromoted(t *testing.T) {
	rep := &Replica{db: catalog.New(), promoted: true}
	applyEveryOpKind(t, ReplicaTarget{R: rep})
	mem := catalog.New()
	applyEveryOpKind(t, hql.MemTarget{DB: mem})
	if got, want := storage.Fingerprint(rep.db), storage.Fingerprint(mem); got != want {
		t.Fatalf("promoted replica diverged:\nmemory:  %s\nreplica: %s", want, got)
	}
}
