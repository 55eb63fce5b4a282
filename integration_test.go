package hrdb_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hrdb"
)

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndLifecycle drives the whole stack through the public facade:
// durable store → HQL DDL/DML → algebra → consolidate → checkpoint → crash
// recovery → frames → datalog.
func TestEndToEndLifecycle(t *testing.T) {
	dir := t.TempDir()

	// Phase 1: build a durable database through HQL.
	store, err := hrdb.OpenStore(dir)
	must(t, err)
	sess := hrdb.NewStoreSession(store)
	_, err = sess.Exec(`
CREATE HIERARCHY Animal;
CLASS Bird UNDER Animal;
CLASS Canary UNDER Bird;
INSTANCE Tweety UNDER Canary;
CLASS Penguin UNDER Bird;
CLASS AFP UNDER Penguin;
INSTANCE Paul UNDER Penguin;
INSTANCE Pamela UNDER AFP;
CREATE RELATION Flies (Creature: Animal);
ASSERT Flies (Bird);
DENY Flies (Penguin);
ASSERT Flies (AFP);
`)
	must(t, err)

	// Phase 2: queries through the session.
	out, err := sess.Exec("HOLDS Flies (Tweety); HOLDS Flies (Paul); WHY Flies (Pamela);")
	must(t, err)
	if !strings.Contains(out, "true") || !strings.Contains(out, "false") {
		t.Fatalf("out = %q", out)
	}
	if !strings.Contains(out, "+ (AFP)") {
		t.Fatalf("WHY missing binder: %q", out)
	}

	// Phase 3: algebra on a snapshot.
	r, err := store.Database().Snapshot("Flies")
	must(t, err)
	sel, err := hrdb.Select("penguins", r, hrdb.Condition{Attr: "Creature", Class: "Penguin"})
	must(t, err)
	ext, err := sel.Extension()
	must(t, err)
	if len(ext) != 1 || ext[0][0] != "Pamela" {
		t.Fatalf("flying penguins = %v", ext)
	}

	// Phase 4: checkpoint, extra write, crash (close), recover.
	must(t, store.Checkpoint())
	must(t, store.AddInstance("Animal", "Robin", "Bird"))
	must(t, store.Assert("Flies", "Tweety")) // redundant but durable
	must(t, store.Close())

	store2, err := hrdb.OpenStore(dir)
	must(t, err)
	defer store2.Close()
	ok, err := store2.Database().Holds("Flies", "Robin")
	must(t, err)
	if !ok {
		t.Fatal("Robin lost in recovery")
	}

	// Phase 5: consolidate durably; the redundant Tweety tuple goes away.
	must(t, store2.Consolidate("Flies"))
	rel, err := store2.Database().Relation("Flies")
	must(t, err)
	if _, found := rel.Lookup(hrdb.Item{"Tweety"}); found {
		t.Fatal("consolidate did not remove the redundant tuple")
	}

	// Phase 6: a datalog layer over the recovered relation.
	flies, err := store2.Database().Snapshot("Flies")
	must(t, err)
	p := hrdb.NewProgram()
	p.AddEDB("flies", flies)
	h, err := store2.Database().Hierarchy("Animal")
	must(t, err)
	p.AddTaxonomy(h)
	must(t, p.AddRule(hrdb.DatalogRule{
		Head: hrdb.Pred("travelsFar", hrdb.Var("X")),
		Body: []hrdb.RuleAtom{hrdb.Pred("flies", hrdb.Var("X"))},
	}))
	res, err := p.Solve(hrdb.Pred("travelsFar", hrdb.Var("X")))
	must(t, err)
	names := map[string]bool{}
	for _, b := range res {
		names[b["X"]] = true
	}
	for _, want := range []string{"Tweety", "Robin", "Pamela"} {
		if !names[want] {
			t.Fatalf("travelsFar missing %s: %v", want, names)
		}
	}
	if names["Paul"] {
		t.Fatal("Paul must not travel far")
	}
}

// TestFacadeAlgebraSurface smoke-tests each facade function.
func TestFacadeAlgebraSurface(t *testing.T) {
	h := hrdb.NewHierarchy("D")
	must(t, h.AddClass("A"))
	must(t, h.AddInstance("a1", "A"))
	must(t, h.AddInstance("a2", "A"))
	schema, err := hrdb.NewSchema(hrdb.Attribute{Name: "X", Domain: h})
	must(t, err)
	r1 := hrdb.NewRelation("R1", schema)
	must(t, r1.Assert("A"))
	r2 := hrdb.NewRelation("R2", schema)
	must(t, r2.Assert("a1"))

	u, err := hrdb.Union("U", r1, r2)
	must(t, err)
	if n, _ := u.ExtensionSize(); n != 2 {
		t.Fatalf("union size %d", n)
	}
	i, err := hrdb.Intersect("I", r1, r2)
	must(t, err)
	if n, _ := i.ExtensionSize(); n != 1 {
		t.Fatalf("intersect size %d", n)
	}
	d, err := hrdb.Difference("D", r1, r2)
	must(t, err)
	if n, _ := d.ExtensionSize(); n != 1 {
		t.Fatalf("difference size %d", n)
	}
	ren, err := hrdb.Rename("R3", r1, map[string]string{"X": "Y"})
	must(t, err)
	if _, ok := ren.Schema().Index("Y"); !ok {
		t.Fatal("rename failed")
	}
	p, err := hrdb.Project("P", r1, "X")
	must(t, err)
	if p.Len() != r1.Len() {
		t.Fatal("project reorder failed")
	}

	two := hrdb.NewRelation("Two", hrdb.MustSchema(
		hrdb.Attribute{Name: "X", Domain: h},
		hrdb.Attribute{Name: "Y", Domain: h},
	))
	must(t, two.Assert("A", "a1"))
	j, err := hrdb.Join("J", r1, two)
	must(t, err)
	if n, _ := j.ExtensionSize(); n != 2 { // (a1,a1),(a2,a1)
		t.Fatalf("join size %d", n)
	}

	// Three-valued evaluation.
	tv, err := hrdb.EvaluateOpenWorld(r2, hrdb.Item{"a2"})
	must(t, err)
	if tv != hrdb.Unknown {
		t.Fatalf("open world a2 = %v", tv)
	}

	// Mining.
	f := hrdb.NewFlatRelation("F", "X", "Y")
	must(t, f.Insert("p", "1"))
	must(t, f.Insert("q", "1"))
	_, res, err := hrdb.MineBest(f)
	must(t, err)
	if res.CompressionRatio() < 1 {
		t.Fatal("mining ratio < 1")
	}
	mres, err := hrdb.Mine(f, 0)
	must(t, err)
	if mres.FlatRows != 2 {
		t.Fatal("mine rows")
	}
}

// TestReopenRepliesOnlyItsOwnWarnings: recovery replays a logged
// warn-policy deny with no one to warn, so the first write after a reopen
// replies with that write's warnings only.
func TestReopenRepliesOnlyItsOwnWarnings(t *testing.T) {
	dir := t.TempDir()
	st, err := hrdb.OpenStore(dir)
	must(t, err)
	out, err := hrdb.NewStoreSession(st).Exec("CREATE HIERARCHY D; CLASS A UNDER D; INSTANCE x UNDER A; INSTANCE y UNDER A; CREATE RELATION R (X: D); ASSERT R (A); SET POLICY warn; DENY R (x);")
	must(t, err)
	if !strings.Contains(out, "warning: exception: (x)") {
		t.Fatalf("deny replied %q, want its warning", out)
	}
	must(t, st.Close())

	st, err = hrdb.OpenStore(dir)
	must(t, err)
	defer st.Close()
	out, err = hrdb.NewStoreSession(st).Exec("ASSERT R (y);")
	must(t, err)
	if out != "asserted R(y)\n" {
		t.Fatalf("first write after reopen replied %q, want no warning", out)
	}
}

// TestFacadeDatabasePolicies drives policy + tx via the facade types.
func TestFacadeDatabasePolicies(t *testing.T) {
	db := hrdb.NewDatabase()
	h, err := db.CreateHierarchy("D")
	must(t, err)
	must(t, h.AddClass("A"))
	must(t, h.AddInstance("x", "A"))
	_, err = db.CreateRelation("R", hrdb.AttrSpec{Name: "X", Domain: "D"})
	must(t, err)
	must(t, db.Assert("R", "A"))

	db.SetPolicy(hrdb.ForbidExceptions)
	if err := db.Deny("R", "x"); err == nil {
		t.Fatal("forbid policy ignored")
	}
	db.SetPolicy(hrdb.WarnExceptions)
	w, err := db.Apply([]hrdb.TxOp{{Kind: "deny", Relation: "R", Values: []string{"x"}, Bare: true}})
	must(t, err)
	if len(w) == 0 {
		t.Fatal("warn policy silent")
	}
	db.SetPolicy(hrdb.AllowExceptions)

	var ce *hrdb.ConflictError
	_ = ce // type available through the facade
	var ie *hrdb.InconsistencyError
	_, err = db.Retract("R", "A")
	must(t, err)
	must(t, db.Assert("R", "A")) // back to a conflict-free base
	// Conflict through multiple inheritance:
	must(t, h.AddClass("B"))
	must(t, h.AddInstance("y", "A", "B"))
	if err := db.Deny("R", "B"); !errors.As(err, &ie) {
		t.Fatalf("got %v", err)
	}
}

// TestStoreOnDiskLayout sanity-checks the persistent artifacts.
func TestStoreOnDiskLayout(t *testing.T) {
	dir := t.TempDir()
	store, err := hrdb.OpenStore(dir)
	must(t, err)
	must(t, store.CreateHierarchy("D"))
	must(t, store.Checkpoint())
	must(t, store.Close())
	if _, err := os.Stat(filepath.Join(dir, "snapshot.hrdb")); err != nil {
		t.Fatal("snapshot missing")
	}
	// A fresh store logs to wal.log; each checkpoint rotates to an
	// epoch-numbered successor referenced by the snapshot.
	if _, err := os.Stat(filepath.Join(dir, "wal.000001.log")); err != nil {
		t.Fatal("post-checkpoint wal missing")
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.log")); !os.IsNotExist(err) {
		t.Fatal("pre-checkpoint wal not removed")
	}
}

// TestStoreFaultInjectionFacade exercises the durability seam through the
// public API: a store opened over a FaultFS poisons on fsync failure and
// reopening recovers the acknowledged state.
func TestStoreFaultInjectionFacade(t *testing.T) {
	dir := t.TempDir()
	ffs := hrdb.NewFaultFS(nil)
	store, err := hrdb.OpenStoreOptions(dir, hrdb.StoreOptions{FS: ffs})
	must(t, err)
	must(t, store.CreateHierarchy("D"))
	must(t, store.AddClass("D", "C"))

	ffs.FailSyncAfter(0)
	if err := store.AddClass("D", "Lost"); !errors.Is(err, hrdb.ErrStoreFailed) {
		t.Fatalf("got %v, want ErrStoreFailed", err)
	}
	if err := store.CreateHierarchy("E"); !errors.Is(err, hrdb.ErrStoreFailed) {
		t.Fatalf("poisoned store accepted a mutation: %v", err)
	}

	store2, err := hrdb.OpenStore(dir)
	must(t, err)
	defer store2.Close()
	h, err := store2.Database().Hierarchy("D")
	must(t, err)
	if !h.Has("C") {
		t.Fatal("acknowledged class lost after fault")
	}
}
