package hql

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
)

// stubViews is a minimal ViewCatalog over a MemTarget: CreateView evaluates
// the defining query once against the live database and freezes the result.
type stubViews struct {
	MemTarget
	views map[string]*core.Relation
	defs  map[string]string
}

func (s *stubViews) CreateView(name, query string) error {
	if _, ok := s.views[name]; ok {
		return fmt.Errorf("view %q exists", name)
	}
	st, err := Parse(query)
	if err != nil {
		return err
	}
	if err := Materializable(st[0]); err != nil {
		return err
	}
	var rel string
	switch q := st[0].(type) {
	case ExtensionStmt:
		rel = q.Relation
	case SelectStmt:
		rel = q.Relation
	case CountStmt:
		rel = q.Relation
	}
	snap, err := s.DB.Snapshot(rel)
	if err != nil {
		return err
	}
	flat, err := snap.Explicate()
	if err != nil {
		return err
	}
	s.views[name] = flat
	s.defs[name] = query
	return nil
}

func (s *stubViews) DropView(name string) error {
	if _, ok := s.views[name]; !ok {
		return fmt.Errorf("no view %q", name)
	}
	delete(s.views, name)
	delete(s.defs, name)
	return nil
}

func (s *stubViews) ViewRead(name string, fn func(*core.Relation) error) error {
	v, ok := s.views[name]
	if !ok {
		return fmt.Errorf("no view %q", name)
	}
	return fn(v)
}

func (s *stubViews) ViewNames() []string {
	var out []string
	for n := range s.views {
		out = append(out, n)
	}
	return out
}

func (s *stubViews) ViewStatus(name string) (string, error) {
	d, ok := s.defs[name]
	if !ok {
		return "", fmt.Errorf("no view %q", name)
	}
	return name + ": " + d, nil
}

func seedViewBase(t *testing.T, db *catalog.Database) {
	t.Helper()
	if _, err := NewSession(MemTarget{DB: db}).Exec(`
		CREATE HIERARCHY D;
		CLASS C IN D;
		INSTANCE x UNDER C; INSTANCE y UNDER C;
		CREATE RELATION R (A: D);
		ASSERT R (C);
	`); err != nil {
		t.Fatal(err)
	}
}

// TestViewStatementsWithoutCatalog: every view statement against a plain
// MemTarget reports ErrNoViews — view support is an optional interface.
func TestViewStatementsWithoutCatalog(t *testing.T) {
	db := catalog.New()
	seedViewBase(t, db)
	sess := NewSession(MemTarget{DB: db})
	for _, stmt := range []string{
		"CREATE MATERIALIZED VIEW v AS EXTENSION R;",
		"DROP VIEW v;",
		"SHOW VIEWS;",
		"SHOW VIEW v;",
	} {
		if _, err := sess.Exec(stmt); !errors.Is(err, ErrNoViews) {
			t.Fatalf("%s = %v, want ErrNoViews", stmt, err)
		}
	}
}

// TestViewStatementsWithCatalog drives the full view statement surface, and
// the read fallbacks that let a view name stand in for a relation.
func TestViewStatementsWithCatalog(t *testing.T) {
	db := catalog.New()
	seedViewBase(t, db)
	vt := &stubViews{
		MemTarget: MemTarget{DB: db},
		views:     map[string]*core.Relation{},
		defs:      map[string]string{},
	}
	sess := NewSession(vt)

	out, err := sess.Exec("CREATE MATERIALIZED VIEW v AS EXTENSION R;")
	if err != nil || !strings.Contains(out, "created materialized view v") {
		t.Fatalf("create view = %q, %v", out, err)
	}
	if got := vt.defs["v"]; got != "EXTENSION R" {
		t.Fatalf("canonical query = %q, want EXTENSION R", got)
	}

	if out, err = sess.Exec("SHOW VIEWS;"); err != nil || strings.TrimSpace(out) != "v" {
		t.Fatalf("SHOW VIEWS = %q, %v", out, err)
	}
	if out, err = sess.Exec("SHOW VIEW v;"); err != nil || !strings.Contains(out, "EXTENSION R") {
		t.Fatalf("SHOW VIEW v = %q, %v", out, err)
	}

	// Reads resolve the view name where a relation is expected.
	if out, err = sess.Exec("EXTENSION v;"); err != nil || !strings.Contains(out, "(x)") || !strings.Contains(out, "(y)") {
		t.Fatalf("EXTENSION v = %q, %v", out, err)
	}
	if out, err = sess.Exec("SELECT FROM v WHERE A UNDER C;"); err != nil || !strings.Contains(out, "x") {
		t.Fatalf("SELECT over view = %q, %v", out, err)
	}
	if out, err = sess.Exec("COUNT v;"); err != nil || !strings.Contains(out, "2") {
		t.Fatalf("COUNT v = %q, %v", out, err)
	}
	if out, err = sess.Exec("HOLDS v (x);"); err != nil || !strings.Contains(out, "true") {
		t.Fatalf("HOLDS over view = %q, %v", out, err)
	}
	if out, err = sess.Exec("SHOW RELATION v;"); err != nil || !strings.Contains(out, "x") {
		t.Fatalf("SHOW RELATION v = %q, %v", out, err)
	}

	// A real relation still wins over the fallback; an unknown name still
	// reports the catalog's error.
	if out, err = sess.Exec("EXTENSION R;"); err != nil || !strings.Contains(out, "(x)") {
		t.Fatalf("EXTENSION R = %q, %v", out, err)
	}
	if _, err = sess.Exec("EXTENSION nosuch;"); err == nil {
		t.Fatal("EXTENSION nosuch succeeded")
	}
	if _, err = sess.Exec("HOLDS nosuch (x);"); err == nil {
		t.Fatal("HOLDS nosuch succeeded")
	}

	if out, err = sess.Exec("DROP VIEW v;"); err != nil || !strings.Contains(out, "dropped view v") {
		t.Fatalf("drop view = %q, %v", out, err)
	}
	if _, err = sess.Exec("EXTENSION v;"); err == nil {
		t.Fatal("read of a dropped view succeeded")
	}
	if _, err = sess.Exec("DROP VIEW v;"); err == nil {
		t.Fatal("double drop succeeded")
	}
}

// TestMaterializable pins which statements may define a view.
func TestMaterializable(t *testing.T) {
	for _, tc := range []struct {
		query string
		ok    bool
	}{
		{"EXTENSION R", true},
		{"COUNT R", true},
		{"SELECT FROM R WHERE A UNDER C", true},
		{"SELECT FROM R WHERE A UNDER C AS S", false},
		{"ASSERT R (x)", false},
		{"SHOW VIEWS", false},
	} {
		st, err := Parse(tc.query + ";")
		if err != nil {
			t.Fatalf("parse %q: %v", tc.query, err)
		}
		if err := Materializable(st[0]); (err == nil) != tc.ok {
			t.Fatalf("Materializable(%q) = %v, want ok=%v", tc.query, err, tc.ok)
		}
	}

	// The parser enforces the same rule inline.
	if _, err := Parse("CREATE MATERIALIZED VIEW v AS ASSERT R (x);"); err == nil {
		t.Fatal("parser accepted a mutating view query")
	}
}
