package shard

import (
	"reflect"
	"strings"
	"testing"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
)

func TestEncodeDecodeTuples(t *testing.T) {
	tuples := []core.Tuple{
		{Item: core.Item{"Tweety", "high"}, Sign: true},
		{Item: core.Item{"Paul", "low"}, Sign: false},
	}
	resp := EncodeTupleLines(tuples)
	got, err := DecodeTuples(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tuples) {
		t.Fatalf("round trip mismatch: %v != %v", got, tuples)
	}
	if got, err := DecodeTuples(""); err != nil || got != nil {
		t.Fatalf("empty response: got %v, %v", got, err)
	}
	if _, err := DecodeTuples("Tweety\x1fhigh"); err == nil {
		t.Fatal("line without sign byte must fail")
	}
}

func TestEncodeSelectParses(t *testing.T) {
	op, err := EncodeSelect("Flies", [][2]string{{"Creature", "Bird"}, {"Alt", "high"}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseOp(op)
	if err != nil {
		t.Fatal(err)
	}
	if p.verb != "SELECT" || !reflect.DeepEqual(p.fields, []string{"Flies", "Creature", "Bird", "Alt", "high"}) {
		t.Fatalf("parsed %+v", p)
	}
}

func TestEncodeEvalRoundTrip(t *testing.T) {
	items := []core.Item{{"Tweety"}, {"Paul"}}
	op, err := EncodeEval("Flies", items)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseOp(op)
	if err != nil {
		t.Fatal(err)
	}
	if p.verb != "EVAL" || len(p.fields) != 1 || p.fields[0] != "Flies" {
		t.Fatalf("parsed %+v", p)
	}
	if got := decodeItems(p.lines); !reflect.DeepEqual(got, items) {
		t.Fatalf("items %v != %v", got, items)
	}
}

func TestEncodePrepareRoundTrip(t *testing.T) {
	ops := []catalog.TxOp{
		{Kind: "assert", Relation: "Flies", Values: []string{"Bird"}},
		{Kind: "deny", Relation: "Flies", Values: []string{"Penguin"}},
		{Kind: "retract", Relation: "Eats", Values: []string{"Paul", "fish"}},
		{Kind: "deny", Relation: "Flies", Values: []string{"Bird"}, Bare: true},
	}
	op, err := EncodePrepare("g1.7", ops)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseOp(op)
	if err != nil {
		t.Fatal(err)
	}
	if p.verb != "PREPARE" || gidOf(p) != "g1.7" {
		t.Fatalf("parsed %+v", p)
	}
	got, err := decodeOps(p.lines)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ops) {
		t.Fatalf("ops %v != %v", got, ops)
	}
}

func TestDecodeOpsRejectsUnknownKind(t *testing.T) {
	if _, err := decodeOps([]string{"upsert\x1ftx\x1fFlies\x1fBird"}); err == nil {
		t.Fatal("unknown kind must fail")
	}
	if _, err := decodeOps([]string{"assert\x1fFlies\x1fBird"}); err == nil {
		t.Fatal("unknown flag (the pre-flag line) must fail")
	}
	if _, err := decodeOps([]string{"assert\x1fbare"}); err == nil {
		t.Fatal("op without relation must fail")
	}
	if _, err := EncodeApply("g", []catalog.TxOp{{Kind: "add_class", Relation: "D", Values: []string{"C"}}}); err == nil {
		t.Fatal("the encoder must refuse a kind the decoder does")
	}
}

func TestWireSafetyRejected(t *testing.T) {
	if _, err := EncodeTuples("bad\x1fname"); err == nil {
		t.Fatal("separator in relation name must fail")
	}
	if _, err := EncodeEval("r", []core.Item{{"a\nb"}}); err == nil {
		t.Fatal("newline in value must fail")
	}
	if _, err := EncodePrepare("gid", []catalog.TxOp{{Kind: "assert", Relation: "r", Values: []string{"x\x1fy"}}}); err == nil {
		t.Fatal("separator in op value must fail")
	}
}

func TestDecodeBools(t *testing.T) {
	got, err := DecodeBools("true\nfalse\ntrue")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []bool{true, false, true}) {
		t.Fatalf("got %v", got)
	}
	if _, err := DecodeBools("maybe"); err == nil {
		t.Fatal("malformed EVAL line must fail")
	}
}

func TestOpIdempotent(t *testing.T) {
	op, err := EncodeCommit("g1")
	if err != nil {
		t.Fatal(err)
	}
	if !OpIdempotent(op) {
		t.Fatal("every encoded shard op is idempotent")
	}
	if OpIdempotent("") {
		t.Fatal("the empty op is not a valid operation")
	}
}

func TestParseOpRejectsEmpty(t *testing.T) {
	if _, err := parseOp(""); err == nil {
		t.Fatal("empty operation must fail")
	}
	if _, err := parseOp(strings.Repeat("\x1f", 3)); err == nil {
		t.Fatal("empty verb must fail")
	}
}

// FuzzShardOpDecode: the shard op decoders never panic on arbitrary input,
// and an op list survives encode → parse → decode for every kind, with and
// without Bare.
func FuzzShardOpDecode(f *testing.F) {
	prep, _ := EncodePrepare("g1.7", []catalog.TxOp{
		{Kind: "assert", Relation: "Flies", Values: []string{"Bird"}},
		{Kind: "deny", Relation: "Flies", Values: []string{"Bird"}, Bare: true},
	})
	f.Add(prep, "Flies", "Bird")
	f.Add("APPLY\x1fg\nretract\x1ftx\x1fR", "R", "")
	f.Add("+a\x1fb\n-c", "r", "x\x1fy")
	f.Add("true\nfalse\n", "", "a\nb")
	f.Add("", "", "")
	f.Fuzz(func(t *testing.T, input, rel, value string) {
		if p, err := parseOp(input); err == nil {
			_, _ = decodeOps(p.lines)
			_ = decodeItems(p.lines)
		}
		_, _ = DecodeTuples(input)
		_, _ = DecodeBools(input)

		var ops []catalog.TxOp
		for _, kind := range []string{"assert", "deny", "retract"} {
			for _, bare := range []bool{false, true} {
				ops = append(ops, catalog.TxOp{Kind: kind, Relation: rel, Values: []string{value, kind}, Bare: bare})
			}
		}
		enc, err := EncodeApply("gid", ops)
		if err != nil {
			if checkWireSafe([]string{rel, value}) == nil {
				t.Fatalf("wire-safe ops refused: %v", err)
			}
			return
		}
		p, err := parseOp(enc)
		if err != nil || p.verb != "APPLY" || gidOf(p) != "gid" {
			t.Fatalf("parseOp(%q) = %+v, %v", enc, p, err)
		}
		if got, err := decodeOps(p.lines); err != nil || !reflect.DeepEqual(got, ops) {
			t.Fatalf("round trip of %+v = %+v, %v", ops, got, err)
		}
	})
}
