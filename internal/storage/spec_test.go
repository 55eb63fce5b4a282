package storage

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
)

// TestBuildHierarchyBadSpec: broken specs are rejected with context.
func TestBuildHierarchyBadSpec(t *testing.T) {
	// Parent before child violated.
	_, err := BuildHierarchy(HierarchySpec{
		Domain: "D",
		Nodes:  []NodeSpec{{Name: "child", Parents: []string{"missing"}}},
	})
	if err == nil {
		t.Fatal("missing parent accepted")
	}
	// Duplicate node.
	_, err = BuildHierarchy(HierarchySpec{
		Domain: "D",
		Nodes:  []NodeSpec{{Name: "x"}, {Name: "x"}},
	})
	if err == nil {
		t.Fatal("duplicate accepted")
	}
	// Bad preference.
	_, err = BuildHierarchy(HierarchySpec{
		Domain: "D",
		Prefs:  [][2]string{{"a", "b"}},
	})
	if err == nil {
		t.Fatal("bad preference accepted")
	}
}

// TestBuildDatabaseBadSpecs.
func TestBuildDatabaseBadSpecs(t *testing.T) {
	// Relation referencing a missing hierarchy.
	_, err := BuildDatabase(DatabaseSpec{
		Relations: []RelationSpec{{
			Name:  "R",
			Attrs: []RelationAttr{{Name: "X", Domain: "Missing"}},
		}},
	})
	if err == nil {
		t.Fatal("missing hierarchy accepted")
	}
	// Tuple with a value outside the domain.
	_, err = BuildDatabase(DatabaseSpec{
		Hierarchies: []HierarchySpec{{Domain: "D", Nodes: []NodeSpec{{Name: "a"}}}},
		Relations: []RelationSpec{{
			Name:   "R",
			Attrs:  []RelationAttr{{Name: "X", Domain: "D"}},
			Tuples: []TupleSpec{{Item: []string{"nope"}, Sign: true}},
		}},
	})
	if err == nil {
		t.Fatal("bad tuple accepted")
	}
	// Duplicate hierarchy.
	_, err = BuildDatabase(DatabaseSpec{
		Hierarchies: []HierarchySpec{{Domain: "D"}, {Domain: "D"}},
	})
	if err == nil {
		t.Fatal("duplicate hierarchy accepted")
	}
}

// modeSpec is a database of one relation R over hierarchy D, stored in
// preemption mode mode.
func modeSpec(mode int) DatabaseSpec {
	return DatabaseSpec{
		Hierarchies: []HierarchySpec{{Domain: "D", Nodes: []NodeSpec{{Name: "c"}, {Name: "x", Instance: true, Parents: []string{"c"}}}}},
		Relations: []RelationSpec{{
			Name:   "R",
			Attrs:  []RelationAttr{{Name: "X", Domain: "D"}},
			Mode:   mode,
			Tuples: []TupleSpec{{Item: []string{"c"}, Sign: true}},
		}},
	}
}

// TestBuildDatabaseRefusesUnknownMode: a spec whose relation carries a mode
// other than off-path, on-path or none is corrupt, and the error names the
// relation and the mode; every defined mode loads.
func TestBuildDatabaseRefusesUnknownMode(t *testing.T) {
	for _, mode := range []int{7, -1, 3} {
		_, err := BuildDatabase(modeSpec(mode))
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), `"R"`) || !strings.Contains(err.Error(), fmt.Sprint(mode)) {
			t.Fatalf("mode %d: %v, want ErrCorrupt naming R and the mode", mode, err)
		}
	}
	for _, mode := range []core.Preemption{core.OffPath, core.OnPath, core.NoPreemption} {
		db, err := BuildDatabase(modeSpec(int(mode)))
		must(t, err)
		r, err := db.Snapshot("R")
		must(t, err)
		if r.Mode() != mode {
			t.Fatalf("loaded mode %v, want %v", r.Mode(), mode)
		}
	}
}

// TestBuildDatabaseRefusesUnknownPolicy: a spec whose exception policy is
// not allow, warn or forbid is corrupt, and the error names the policy;
// every defined policy survives a snapshot written and reopened.
func TestBuildDatabaseRefusesUnknownPolicy(t *testing.T) {
	for _, policy := range []int{-1, 7} {
		spec := modeSpec(int(core.OffPath))
		spec.Policy = policy
		_, err := BuildDatabase(spec)
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprint(policy)) {
			t.Fatalf("policy %d: %v, want ErrCorrupt naming the policy", policy, err)
		}
	}
	for _, policy := range []catalog.ExceptionPolicy{catalog.AllowExceptions, catalog.WarnExceptions, catalog.ForbidExceptions} {
		spec := modeSpec(int(core.OffPath))
		spec.Policy = int(policy)
		dir := t.TempDir()
		s, err := Create(dir, spec, Options{})
		must(t, err)
		must(t, s.Close())
		s, err = Open(dir)
		must(t, err)
		got := s.Database().Policy()
		must(t, s.Close())
		if got != policy {
			t.Fatalf("policy %v after a snapshot round trip, want %v", got, policy)
		}
	}
}

// TestOpenRefusesUnknownMode: a snapshot carrying an unknown mode fails to
// open as ErrCorrupt instead of loading a relation whose inherited reads
// fail.
func TestOpenRefusesUnknownMode(t *testing.T) {
	dir := t.TempDir()
	if s, err := Create(dir, modeSpec(7), Options{}); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			s.Close()
		}
		t.Fatalf("Create with mode 7 = %v, want ErrCorrupt", err)
	}
	if s, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			s.Close()
		}
		t.Fatalf("Open with mode 7 = %v, want ErrCorrupt", err)
	}
}

// TestMalformedOpsRejected: an op of unknown kind or with a malformed
// argument list is refused — on the write path with nothing applied and
// nothing staged, on the replay path as ErrCorrupt.
func TestMalformedOpsRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	must(t, err)
	defer s.Close()
	must(t, s.CreateHierarchy("D"))
	must(t, s.CreateRelation("R", catalog.AttrSpec{Name: "X", Domain: "D"}))

	bad := []Record{
		{Op: "add_class", Target: "D"},                       // missing name
		{Op: "add_edge", Target: "D", Args: []string{"one"}}, // wants 2
		{Op: "prefer", Target: "D", Args: []string{"one"}},   // wants 2
		{Op: "create_relation", Target: "Q", Args: []string{"odd"}},
		{Op: "drop_node", Target: "D"},
		{Op: "set_mode", Target: "R", Args: []string{"sideways"}},
		{Op: Op(catalog.KindSetPolicy), Args: []string{"maybe"}},
		{Op: OpTxBegin}, // a WAL record, but not a mutation
		{Op: Op("nonsense")},
	}
	want := fingerprint(s.Database())
	size, err := s.LogSize()
	must(t, err)
	for _, rec := range bad {
		op := catalog.TxOp{Kind: string(rec.Op), Relation: rec.Target, Values: rec.Args}
		if err := s.ApplyTx([]catalog.TxOp{op}); !errors.Is(err, catalog.ErrBadOp) {
			t.Errorf("op %+v = %v, want ErrBadOp", op, err)
		}
		if rec.Op == OpTxBegin {
			continue
		}
		op.Bare = true // as a Reader yields a record logged outside a bracket
		if err := (Change{Ops: []catalog.TxOp{op}}).Apply(s.Database()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("replayed record %+v = %v, want ErrCorrupt", rec, err)
		}
	}
	// A batch of several ops is checked as a whole before any of it is
	// staged: the log can make only one transaction's tuple updates atomic,
	// so the store refuses the mixes a bare database applies in order.
	for _, second := range []catalog.TxOp{
		{Kind: "create_hierarchy", Relation: "E"},
		{Kind: "deny", Relation: "R", Values: []string{"D"}, Bare: true},
	} {
		if err := s.ApplyTx([]catalog.TxOp{{Kind: "assert", Relation: "R", Values: []string{"D"}}, second}); err == nil {
			t.Errorf("batch of an assert and %+v accepted", second)
		}
	}
	if got := fingerprint(s.Database()); got != want {
		t.Errorf("rejected ops changed the database:\n got: %s\nwant: %s", got, want)
	}
	if after, err := s.LogSize(); err != nil || after != size {
		t.Errorf("rejected ops staged records: log %d -> %d (%v)", size, after, err)
	}
}

// TestSnapshotRoundTripPreservesMode: preemption modes survive.
func TestSnapshotRoundTripPreservesMode(t *testing.T) {
	db := buildDB(t)
	r, err := db.Relation("Flies")
	must(t, err)
	r.SetMode(2) // NoPreemption
	spec := SnapshotDatabase(db)
	db2, err := BuildDatabase(spec)
	must(t, err)
	r2, err := db2.Relation("Flies")
	must(t, err)
	if int(r2.Mode()) != 2 {
		t.Fatalf("mode = %v", r2.Mode())
	}
}
