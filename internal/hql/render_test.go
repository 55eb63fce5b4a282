package hql

import (
	"reflect"
	"strings"
	"testing"

	"hrdb/internal/catalog"
)

// Every statement kind, written once the way a client might type it
// (mixed case, equality sugar, odd spacing). Render must round-trip each
// through Parse to an identical AST.
var renderCases = []string{
	"CREATE HIERARCHY Animal;",
	"CLASS mammal UNDER animal IN Animal;",
	"CLASS 'pet rock' UNDER mineral, toy IN Thing;",
	"class bird in Animal;",
	"INSTANCE fido UNDER dog IN Animal;",
	"INSTANCE opus IN Animal;",
	"EDGE Animal: mammal -> dog;",
	"PREFER dog OVER mammal IN Animal;",
	"CREATE RELATION likes (who: Person, what: Food);",
	"DROP RELATION likes;",
	"ASSERT likes (john, pizza);",
	"DENY likes (john, 'hot dog');",
	"RETRACT likes (john, pizza);",
	"HOLDS likes (john, pizza);",
	"WHY likes (john, pizza);",
	"SELECT FROM likes;",
	"SELECT FROM likes WHERE who UNDER student AND what = pizza AS picky;",
	"EXTENSION likes;",
	"CONSOLIDATE likes;",
	"EXPLICATE likes;",
	"EXPLICATE likes ON (who, what);",
	"UNION a b AS c;",
	"intersect a b as c;",
	"DIFFERENCE a b AS c;",
	"JOIN a b AS c;",
	"PROJECT likes ON (who) AS who_likes;",
	"SHOW HIERARCHIES;",
	"SHOW RELATIONS;",
	"SHOW RULES;",
	"SHOW HIERARCHY Animal;",
	"SHOW RELATION likes;",
	"SHOW VIEWS;",
	"SHOW VIEW flat;",
	"create materialized view flat as extension likes;",
	"CREATE MATERIALIZED VIEW picky AS SELECT FROM likes WHERE who UNDER student;",
	"CREATE MATERIALIZED VIEW tally AS COUNT likes BY (who);",
	"DROP VIEW flat;",
	"SET POLICY warn;",
	"SET MODE likes off_path;",
	"DROP NODE dog IN Animal;",
	"RULE ancestor(?x, ?y) IF parent(?x, ?y);",
	"RULE ancestor(?x, ?z) IF parent(?x, ?y) AND ancestor(?y, ?z);",
	"RULE lonely(?x) IF person(?x) AND NOT likes(?x, ?y);",
	"RULE fact(john);",
	"INFER ancestor(?x, john);",
	"COUNT likes;",
	"COUNT likes BY (who);",
	"DUMP;",
	"EXPLAIN SELECT FROM likes WHERE who UNDER student;",
	"EXPLAIN JOIN a b AS c;",
	"BEGIN;",
	"COMMIT;",
	"ROLLBACK;",
}

func TestRenderRoundTrip(t *testing.T) {
	for _, src := range renderCases {
		stmts, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		if len(stmts) != 1 {
			t.Fatalf("parse %q: got %d statements", src, len(stmts))
		}
		rendered := Render(stmts[0]) + ";"
		back, err := Parse(rendered)
		if err != nil {
			t.Fatalf("re-parse of %q (rendered from %q): %v", rendered, src, err)
		}
		if len(back) != 1 || !reflect.DeepEqual(stmts[0], back[0]) {
			t.Errorf("round-trip mismatch:\n  source:   %q\n  rendered: %q\n  got AST:  %#v\n  want AST: %#v",
				src, rendered, back[0], stmts[0])
		}
	}
}

func TestRenderScript(t *testing.T) {
	stmts, err := Parse("BEGIN; ASSERT r (a, b); COMMIT;")
	if err != nil {
		t.Fatal(err)
	}
	got := RenderScript(stmts)
	want := "BEGIN;\nASSERT r (a, b);\nCOMMIT;\n"
	if got != want {
		t.Errorf("RenderScript = %q, want %q", got, want)
	}
	if _, err := Parse(got); err != nil {
		t.Errorf("rendered script does not re-parse: %v", err)
	}
}

func TestRenderQuotesAwkwardNames(t *testing.T) {
	stmts, err := Parse("ASSERT 'my rel' ('a value', plain);")
	if err != nil {
		t.Fatal(err)
	}
	r := Render(stmts[0])
	if !strings.Contains(r, "'my rel'") || !strings.Contains(r, "'a value'") {
		t.Errorf("Render did not quote names needing it: %q", r)
	}
}

// TestRenderOpRoundTrip: the statement RenderOp writes for an op issues
// that op again, for every kind — a shard coordinator sends catalog ops to
// its shards this way. SET MODE's op spells off-path where its statement
// spells off_path.
func TestRenderOpRoundTrip(t *testing.T) {
	s := NewSession(MemTarget{DB: catalog.New()})
	for _, op := range []TxOp{
		{Kind: catalog.KindCreateHierarchy, Relation: "Animal"},
		{Kind: catalog.KindAddClass, Relation: "Animal", Values: []string{"pet rock", "mineral", "toy"}},
		{Kind: catalog.KindAddClass, Relation: "Animal", Values: []string{"bird"}},
		{Kind: catalog.KindAddInstance, Relation: "Animal", Values: []string{"fido", "dog"}},
		{Kind: catalog.KindAddEdge, Relation: "Animal", Values: []string{"mammal", "dog"}},
		{Kind: catalog.KindPrefer, Relation: "Animal", Values: []string{"dog", "mammal"}},
		{Kind: catalog.KindDropNode, Relation: "Animal", Values: []string{"dog"}},
		{Kind: catalog.KindCreateRelation, Relation: "Flies", Values: []string{"Creature", "Animal", "Alt", "Alt"}},
		{Kind: catalog.KindDropRelation, Relation: "Flies"},
		{Kind: catalog.KindAssert, Relation: "Flies", Values: []string{"Bird", "high"}},
		{Kind: catalog.KindDeny, Relation: "Flies", Values: []string{"a value"}},
		{Kind: catalog.KindRetract, Relation: "Flies", Values: []string{"Tweety"}},
		{Kind: catalog.KindConsolidate, Relation: "Flies"},
		{Kind: catalog.KindExplicate, Relation: "Flies"},
		{Kind: catalog.KindExplicate, Relation: "Flies", Values: []string{"Creature"}},
		{Kind: catalog.KindSetMode, Relation: "Flies", Values: []string{"off-path"}},
		{Kind: catalog.KindSetMode, Relation: "Flies", Values: []string{"on-path"}},
		{Kind: catalog.KindSetMode, Relation: "Flies", Values: []string{"none"}},
		{Kind: catalog.KindSetPolicy, Values: []string{"warn"}},
	} {
		text := RenderOp(op)
		stmts, err := Parse(text + ";")
		if err != nil || len(stmts) != 1 {
			t.Fatalf("RenderOp(%+v) = %q does not parse: %v", op, text, err)
		}
		got, _, err := s.opOf(stmts[0])
		if err != nil || !reflect.DeepEqual(got, op) {
			t.Errorf("RenderOp(%+v) = %q issues %+v (err %v)", op, text, got, err)
		}
	}
}
