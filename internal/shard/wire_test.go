package shard

import (
	"errors"
	"reflect"
	"testing"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
	"hrdb/internal/wire"
)

// The coordinator's ops and the node's replies cross the wire as binary
// EXECSHARD payloads (internal/wire); these tests pin that every shard op
// and reply the cluster builds survives the trip exactly, values holding
// separator bytes included.

func opTrip(t *testing.T, op wire.ShardOp) wire.ShardOp {
	t.Helper()
	got, err := wire.ParseShardOp(wire.AppendShardOp(nil, op))
	if err != nil {
		t.Fatalf("ParseShardOp(%+v): %v", op, err)
	}
	if !reflect.DeepEqual(got, op) {
		t.Fatalf("op round trip:\n got %+v\nwant %+v", got, op)
	}
	return got
}

func replyTrip(t *testing.T, rep wire.ShardReply) wire.ShardReply {
	t.Helper()
	got, err := wire.ParseShardReply(wire.ShardReplyPayload(rep))
	if err != nil {
		t.Fatalf("ParseShardReply(%+v): %v", rep, err)
	}
	if !reflect.DeepEqual(got, rep) {
		t.Fatalf("reply round trip:\n got %+v\nwant %+v", got, rep)
	}
	return got
}

func TestEncodeDecodeTuples(t *testing.T) {
	replyTrip(t, wire.ShardReply{Tuples: []core.Tuple{
		{Item: core.Item{"Tweety", "high"}, Sign: true},
		{Item: core.Item{"Paul", "low"}, Sign: false},
		{Item: core.Item{"a\x1fb", "line\nbreak"}, Sign: true},
	}})
	replyTrip(t, wire.ShardReply{})
	opTrip(t, wire.ShardOp{Verb: wire.ShardTuples, Relation: "Flies"})
}

func TestEncodeSelectParses(t *testing.T) {
	opTrip(t, wire.ShardOp{Verb: wire.ShardSelect, Relation: "Flies",
		Conds: [][2]string{{"Creature", "Bird"}, {"Alt", "high"}}})
}

func TestEncodeEvalRoundTrip(t *testing.T) {
	opTrip(t, wire.ShardOp{Verb: wire.ShardEval, Relation: "Flies", Items: []core.Item{{"Tweety"}, {"Paul"}, {""}}})
}

func TestEncodePrepareRoundTrip(t *testing.T) {
	ops := []catalog.TxOp{
		{Kind: catalog.KindAssert, Relation: "Flies", Values: []string{"Bird"}},
		{Kind: catalog.KindDeny, Relation: "Flies", Values: []string{"Penguin"}},
		{Kind: catalog.KindRetract, Relation: "Eats", Values: []string{"Paul", "fish"}},
		{Kind: catalog.KindDeny, Relation: "Flies", Values: []string{"Bird"}, Bare: true},
		// Separator bytes are ordinary data in a length-prefixed payload.
		{Kind: catalog.KindAssert, Relation: "r\x1fs", Values: []string{"x\x1fy", "a\nb"}},
	}
	for _, verb := range []string{wire.ShardPrepare, wire.ShardApply} {
		opTrip(t, wire.ShardOp{Verb: verb, GID: "g1.7\x1f\n", Ops: ops})
	}
	opTrip(t, wire.ShardOp{Verb: wire.ShardCommit, GID: "g1.7"})
	opTrip(t, wire.ShardOp{Verb: wire.ShardAbort, GID: "g1.7"})
	replyTrip(t, wire.ShardReply{Status: "prepared 5"})
}

// TestSeparatorBytesRoundTrip: the names and values a line protocol would
// have to refuse, a unit separator or a newline inside one field, are
// ordinary data in every shard op that carries them.
func TestSeparatorBytesRoundTrip(t *testing.T) {
	opTrip(t, wire.ShardOp{Verb: wire.ShardTuples, Relation: "bad\x1fname"})
	opTrip(t, wire.ShardOp{Verb: wire.ShardEval, Relation: "r", Items: []core.Item{{"a\nb"}}})
	opTrip(t, wire.ShardOp{Verb: wire.ShardPrepare, GID: "gid",
		Ops: []catalog.TxOp{{Kind: catalog.KindAssert, Relation: "r", Values: []string{"x\x1fy"}}}})
	opTrip(t, wire.ShardOp{Verb: wire.ShardSelect, Relation: "r",
		Conds: [][2]string{{"a\x1fb", "c\nd"}}})
}

// TestEncodeCommitAbortAnyGid: a COMMIT or ABORT carries any gid exactly,
// separator bytes included, so no gid the coordinator mints is refused.
func TestEncodeCommitAbortAnyGid(t *testing.T) {
	for _, gid := range []string{"g\x1f1", "g\n1", ""} {
		opTrip(t, wire.ShardOp{Verb: wire.ShardCommit, GID: gid})
		opTrip(t, wire.ShardOp{Verb: wire.ShardAbort, GID: gid})
	}
}

// TestDecodeOpsRejectsUnknownKind: the decoder refuses op entries no
// encoder writes, and the node refuses kinds other than tuple updates.
func TestDecodeOpsRejectsUnknownKind(t *testing.T) {
	good := wire.AppendShardOp(nil, wire.ShardOp{Verb: wire.ShardApply, GID: "g",
		Ops: []catalog.TxOp{{Kind: catalog.KindAssert, Relation: "Flies", Values: []string{"Bird"}}}})
	// The op entry's flags byte sits after head, conds and the counts.
	flags := len(wire.AppendShardOp(nil, wire.ShardOp{Verb: wire.ShardApply, GID: "g"}))
	bad := append([]byte(nil), good...)
	bad[flags] = 2 // a flag bit beyond Bare
	if _, err := wire.ParseShardOp(bad); !errors.Is(err, wire.ErrProtocol) {
		t.Fatalf("unknown flag bit: %v, want ErrProtocol", err)
	}
	n, _ := testNode(t)
	for _, verb := range []string{wire.ShardPrepare, wire.ShardApply} {
		op := wire.ShardOp{Verb: verb, GID: "g", Ops: []catalog.TxOp{{Kind: "upsert", Relation: "Flies", Values: []string{"Bird"}}}}
		if _, err := n.Execute(t.Context(), opTrip(t, op)); err == nil {
			t.Fatalf("%s of an unknown kind succeeded", verb)
		}
	}
}

func TestDecodeBools(t *testing.T) {
	for _, v := range [][]bool{{true}, {true, false, true}, make([]bool, 8), {false, false, false, false, false, false, false, false, true}} {
		replyTrip(t, wire.ShardReply{Verdicts: v})
	}
	p := wire.ShardReplyPayload(wire.ShardReply{Verdicts: []bool{true, false, true}})
	p[len(p)-1] |= 0x80 // a padding bit
	if _, err := wire.ParseShardReply(p); !errors.Is(err, wire.ErrProtocol) {
		t.Fatalf("set padding bit: %v, want ErrProtocol", err)
	}
}

func TestParseOpRejectsEmpty(t *testing.T) {
	for _, p := range [][]byte{nil, {0, 0, 0, 0}, {0, 0, 0, 3}} {
		if _, err := wire.ParseShardOp(p); !errors.Is(err, wire.ErrProtocol) {
			t.Fatalf("ParseShardOp(%x) = %v, want ErrProtocol", p, err)
		}
	}
	n, _ := testNode(t)
	if _, err := n.Execute(t.Context(), wire.ShardOp{}); err == nil {
		t.Fatal("an op without a verb must fail")
	}
}
