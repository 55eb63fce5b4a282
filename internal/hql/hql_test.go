package hql

import (
	"errors"
	"strings"
	"testing"

	"hrdb/internal/catalog"
)

func newSession() *Session {
	return NewSession(MemTarget{DB: catalog.New()})
}

// setupScript builds the Figure 1 world through HQL itself.
const setupScript = `
CREATE HIERARCHY Animal;
CLASS Bird UNDER Animal;
CLASS Canary UNDER Bird;
INSTANCE Tweety UNDER Canary;
CLASS Penguin UNDER Bird;
CLASS GalapagosPenguin UNDER Penguin;
CLASS AmazingFlyingPenguin UNDER Penguin;
INSTANCE Paul UNDER GalapagosPenguin;
INSTANCE Patricia UNDER GalapagosPenguin, AmazingFlyingPenguin;
INSTANCE Pamela UNDER AmazingFlyingPenguin;
INSTANCE Peter UNDER AmazingFlyingPenguin;
CREATE RELATION Flies (Creature: Animal);
ASSERT Flies (Bird);
DENY Flies (Penguin);
ASSERT Flies (AmazingFlyingPenguin);
ASSERT Flies (Peter);
`

func setup(t *testing.T) *Session {
	t.Helper()
	s := newSession()
	if _, err := s.Exec(setupScript); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLexerBasics(t *testing.T) {
	toks, err := lex("ASSERT R (a, 'b c'); -- comment\nX")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
		texts = append(texts, tk.text)
	}
	want := []string{"ASSERT", "R", "(", "a", ",", "b c", ")", ";", "X", ""}
	if len(texts) != len(want) {
		t.Fatalf("tokens = %v", texts)
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	_ = kinds
}

func TestLexerErrors(t *testing.T) {
	if _, err := lex("'unterminated"); err == nil {
		t.Fatal("unterminated string accepted")
	}
	if _, err := lex("@"); err == nil {
		t.Fatal("bad char accepted")
	}
	var se *SyntaxError
	_, err := lex("@")
	if !errors.As(err, &se) || se.Pos != 1 {
		t.Fatalf("got %v", err)
	}
}

func TestLexerArrow(t *testing.T) {
	toks, err := lex("A -> B")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].kind != tokArrow {
		t.Fatalf("tokens = %v", toks)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"FROB x",
		"CREATE NOTHING x",
		"CLASS x",
		"SELECT Flies",
		"ASSERT Flies",
		"UNION a b",
		"SHOW NOTHING",
		"ASSERT R (a) extra",
		"EDGE d p -> c",
		"PREFER a b IN d",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestEvaluationStatements(t *testing.T) {
	s := setup(t)
	out, err := s.Exec("HOLDS Flies (Tweety);")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "true" {
		t.Fatalf("out = %q", out)
	}
	out, err = s.Exec("HOLDS Flies (Paul)")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "false" {
		t.Fatalf("out = %q", out)
	}
}

func TestWhyStatement(t *testing.T) {
	s := setup(t)
	out, err := s.Exec("WHY Flies (Patricia);")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"= true", "AmazingFlyingPenguin", "applicable", "Penguin"} {
		if !strings.Contains(out, want) {
			t.Errorf("WHY output missing %q:\n%s", want, out)
		}
	}
	out, err = s.Exec("WHY Flies (Animal);")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "by default") {
		t.Errorf("default WHY missing: %s", out)
	}
}

func TestSelectStatement(t *testing.T) {
	s := setup(t)
	out, err := s.Exec("SELECT FROM Flies WHERE Creature UNDER Penguin;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Penguin") {
		t.Fatalf("out = %q", out)
	}
	// AS stores the result.
	_, err = s.Exec("SELECT FROM Flies WHERE Creature UNDER Penguin AS PenguinFlies;")
	if err != nil {
		t.Fatal(err)
	}
	out, err = s.Exec("EXTENSION PenguinFlies;")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Pamela", "Patricia", "Peter"} {
		if !strings.Contains(out, want) {
			t.Errorf("extension missing %q: %s", want, out)
		}
	}
	if strings.Contains(out, "Tweety") || strings.Contains(out, "(Paul)") {
		t.Errorf("extension has extra rows: %s", out)
	}
}

func TestExtensionAndConsolidate(t *testing.T) {
	s := setup(t)
	out, err := s.Exec("EXTENSION Flies;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "4 atomic items") {
		t.Fatalf("out = %q", out)
	}
	// Add a redundant tuple, consolidate it away.
	if _, err := s.Exec("ASSERT Flies (Tweety); CONSOLIDATE Flies;"); err != nil {
		t.Fatal(err)
	}
	out, err = s.Exec("SHOW RELATION Flies;")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "Tweety") {
		t.Fatalf("redundant tuple survived: %s", out)
	}
}

func TestExplicateStatement(t *testing.T) {
	s := setup(t)
	out, err := s.Exec("EXPLICATE Flies;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "explicated Flies") {
		t.Fatalf("out = %q", out)
	}
	out, _ = s.Exec("SHOW RELATION Flies;")
	if strings.Contains(out, "∀") {
		t.Fatalf("class values survived explication: %s", out)
	}
}

func TestSetOpsAndJoinStatements(t *testing.T) {
	s := setup(t)
	script := `
CREATE RELATION JillLoves (Creature: Animal);
ASSERT JillLoves (Bird);
UNION Flies JillLoves AS Both;
INTERSECT Flies JillLoves AS Shared;
DIFFERENCE JillLoves Flies AS OnlyJill;
`
	if _, err := s.Exec(script); err != nil {
		t.Fatal(err)
	}
	out, err := s.Exec("EXTENSION OnlyJill;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 atomic items") && !strings.Contains(out, "(Paul)") {
		t.Fatalf("OnlyJill = %s", out)
	}
}

func TestProjectStatement(t *testing.T) {
	s := setup(t)
	script := `
CREATE HIERARCHY Color;
INSTANCE Redd IN Color;
CREATE RELATION Likes (Creature: Animal, Hue: Color);
ASSERT Likes (Bird, Redd);
PROJECT Likes ON (Creature) AS L2;
`
	if _, err := s.Exec(script); err != nil {
		t.Fatal(err)
	}
	out, err := s.Exec("HOLDS L2 (Tweety);")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "true" {
		t.Fatalf("out = %q", out)
	}
}

func TestShowStatements(t *testing.T) {
	s := setup(t)
	out, err := s.Exec("SHOW HIERARCHIES; SHOW RELATIONS;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Animal") || !strings.Contains(out, "Flies") {
		t.Fatalf("out = %q", out)
	}
	out, err = s.Exec("SHOW HIERARCHY Animal;")
	if err != nil {
		t.Fatal(err)
	}
	// Patricia appears under both parents, once marked with *.
	if strings.Count(out, "Patricia") != 2 || !strings.Contains(out, "Patricia ·") {
		t.Fatalf("tree:\n%s", out)
	}
}

func TestTransactionStatements(t *testing.T) {
	s := setup(t)
	// A conflicting update alone fails…
	if _, err := s.Exec("DENY Flies (GalapagosPenguin);"); err == nil {
		t.Fatal("conflicting deny accepted")
	}
	// …but commits with its resolution.
	script := `
BEGIN;
DENY Flies (GalapagosPenguin);
ASSERT Flies (Patricia);
COMMIT;
`
	if _, err := s.Exec(script); err != nil {
		t.Fatal(err)
	}
	out, _ := s.Exec("HOLDS Flies (Paul);")
	if strings.TrimSpace(out) != "false" {
		t.Fatalf("Paul = %q", out)
	}
	// Rollback discards.
	if _, err := s.Exec("BEGIN; ASSERT Flies (Paul); ROLLBACK;"); err != nil {
		t.Fatal(err)
	}
	out, _ = s.Exec("HOLDS Flies (Paul);")
	if strings.TrimSpace(out) != "false" {
		t.Fatalf("rollback leaked: %q", out)
	}
	// Control errors.
	if _, err := s.Exec("COMMIT;"); !errors.Is(err, ErrNoTx) {
		t.Fatalf("got %v", err)
	}
	if _, err := s.Exec("ROLLBACK;"); !errors.Is(err, ErrNoTx) {
		t.Fatalf("got %v", err)
	}
	if _, err := s.Exec("BEGIN; BEGIN;"); !errors.Is(err, ErrInTx) {
		t.Fatalf("got %v", err)
	}
	s2 := setup(t)
	if s2.InTx() {
		t.Fatal("fresh session in tx")
	}
}

func TestPolicyStatement(t *testing.T) {
	s := setup(t)
	if _, err := s.Exec("SET POLICY forbid;"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("DENY Flies (Tweety);"); !errors.Is(err, catalog.ErrExceptionForbidden) {
		t.Fatalf("got %v", err)
	}
	if _, err := s.Exec("SET POLICY warn;"); err != nil {
		t.Fatal(err)
	}
	out, err := s.Exec("DENY Flies (Tweety);")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "warning:") {
		t.Fatalf("out = %q", out)
	}
	if _, err := s.Exec("SET POLICY nonsense;"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestRolledBackTxRaisesNoWarning: a transaction that fails took no effect,
// so the exception its deny would have raised is reported nowhere — in
// particular not with the next write's reply.
func TestRolledBackTxRaisesNoWarning(t *testing.T) {
	s := setup(t)
	if _, err := s.Exec("SET POLICY warn; BEGIN; DENY Flies (Tweety); ASSERT Flies (Nosuch);"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("COMMIT;"); err == nil {
		t.Fatal("a transaction asserting an unknown value committed")
	}
	out, err := s.Exec("ASSERT Flies (Canary);")
	if err != nil {
		t.Fatal(err)
	}
	if out != "asserted Flies(Canary)\n" {
		t.Fatalf("reply after the rolled-back transaction = %q, want no warning", out)
	}
}

func TestEdgeAndPreferStatements(t *testing.T) {
	s := setup(t)
	// Deliberate redundant edge (appendix: Pamela is also directly a
	// Penguin) — evaluation of Pamela now conflicts.
	if _, err := s.Exec("EDGE Animal: Penguin -> Pamela;"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("HOLDS Flies (Pamela);"); err == nil {
		t.Fatal("expected conflict after redundant edge")
	}
	// Preference resolves a GP/AFP standoff.
	s2 := setup(t)
	script := `
BEGIN; DENY Flies (GalapagosPenguin); ASSERT Flies (Patricia); COMMIT;
RETRACT Flies (Patricia);
`
	if _, err := s2.Exec(script); err == nil {
		t.Fatal("retracting the resolver should fail")
	}
	if _, err := s2.Exec("PREFER AmazingFlyingPenguin OVER GalapagosPenguin IN Animal;"); err != nil {
		t.Fatal(err)
	}
	// Now the resolver is removable: AFP preempts GP.
	if _, err := s2.Exec("RETRACT Flies (Patricia);"); err != nil {
		t.Fatal(err)
	}
	out, _ := s2.Exec("HOLDS Flies (Patricia);")
	if strings.TrimSpace(out) != "true" {
		t.Fatalf("Patricia = %q", out)
	}
}

func TestClassDomainResolution(t *testing.T) {
	s := newSession()
	script := `
CREATE HIERARCHY A;
CREATE HIERARCHY B;
CLASS x IN A;
CLASS y UNDER x;
`
	if _, err := s.Exec(script); err != nil {
		t.Fatal(err)
	}
	// Ambiguous: both hierarchies contain their roots only; a parent name
	// present in both is ambiguous.
	s2 := newSession()
	script2 := `
CREATE HIERARCHY A;
CREATE HIERARCHY B;
CLASS shared IN A;
CLASS shared IN B;
CLASS z UNDER shared;
`
	if _, err := s2.Exec(script2); err == nil {
		t.Fatal("ambiguous parent accepted")
	}
	// Unknown parent.
	s3 := newSession()
	if _, err := s3.Exec("CREATE HIERARCHY A; CLASS z UNDER nothing;"); err == nil {
		t.Fatal("unknown parent accepted")
	}
}

func TestDropRelationStatement(t *testing.T) {
	s := setup(t)
	if _, err := s.Exec("DROP RELATION Flies;"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("HOLDS Flies (Tweety);"); !errors.Is(err, catalog.ErrNotFound) {
		t.Fatalf("got %v", err)
	}
}

func TestSelectEqShorthand(t *testing.T) {
	s := setup(t)
	out, err := s.Exec("SELECT FROM Flies WHERE Creature = Tweety;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Tweety") {
		t.Fatalf("out = %q", out)
	}
}

// TestSetModeStatement: preemption switching from HQL (paper appendix).
func TestSetModeStatement(t *testing.T) {
	s := setup(t)
	// Off-path default: Patricia flies.
	out, _ := s.Exec("HOLDS Flies (Patricia);")
	if strings.TrimSpace(out) != "true" {
		t.Fatalf("out = %q", out)
	}
	// On-path: Patricia conflicts.
	if _, err := s.Exec("SET MODE Flies on_path;"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("HOLDS Flies (Patricia);"); err == nil {
		t.Fatal("expected on-path conflict")
	}
	if _, err := s.Exec("SET MODE Flies off_path;"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("SET MODE Flies sideways;"); err == nil {
		t.Fatal("bad mode accepted")
	}
	if _, err := s.Exec("SET MODE Nope none;"); err == nil {
		t.Fatal("unknown relation accepted")
	}
}

// TestDropNodeStatement: referential integrity for schema evolution.
func TestDropNodeStatement(t *testing.T) {
	s := setup(t)
	// Peter is referenced by a tuple: refuse.
	if _, err := s.Exec("DROP NODE Peter IN Animal;"); err == nil {
		t.Fatal("referenced node dropped")
	}
	// Retract first, then drop succeeds.
	if _, err := s.Exec("RETRACT Flies (Peter); DROP NODE Peter IN Animal;"); err != nil {
		t.Fatal(err)
	}
	// Gone from the hierarchy.
	out, _ := s.Exec("SHOW HIERARCHY Animal;")
	if strings.Contains(out, "Peter") {
		t.Fatalf("Peter survived:\n%s", out)
	}
	// Non-leaf refuses; root refuses; unknown refuses.
	if _, err := s.Exec("DROP NODE Penguin IN Animal;"); err == nil {
		t.Fatal("non-leaf dropped")
	}
	if _, err := s.Exec("DROP NODE Animal IN Animal;"); err == nil {
		t.Fatal("root dropped")
	}
	if _, err := s.Exec("DROP NODE Ghost IN Animal;"); err == nil {
		t.Fatal("unknown dropped")
	}
}

// TestCountStatement: COUNT and COUNT BY over extensions, plus DUMP.
func TestCountStatement(t *testing.T) {
	s := setup(t)
	out, err := s.Exec("COUNT Flies;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "count = 4") {
		t.Fatalf("out = %q", out)
	}
	out, err = s.Exec("COUNT Flies BY (Creature);")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Creature=Tweety: 1") {
		t.Fatalf("out = %q", out)
	}
	if _, err := s.Exec("COUNT Nope;"); err == nil {
		t.Fatal("unknown relation accepted")
	}
	// DUMP emits a replayable script.
	out, err = s.Exec("DUMP;")
	if err != nil {
		t.Fatal(err)
	}
	s2 := newSession()
	if _, err := s2.Exec(out); err != nil {
		t.Fatalf("replay failed: %v\nscript:\n%s", err, out)
	}
	got, err := s2.Exec("HOLDS Flies (Patricia);")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(got) != "true" {
		t.Fatalf("replayed DB answered %q", got)
	}
}

func TestMultiStatementOutputAccumulates(t *testing.T) {
	s := setup(t)
	out, err := s.Exec("HOLDS Flies (Tweety); HOLDS Flies (Paul);")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "true") || !strings.Contains(out, "false") {
		t.Fatalf("out = %q", out)
	}
}
