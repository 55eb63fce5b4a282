package shard

import (
	"fmt"
	"strings"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
)

// The shard operation wire format rides inside the server protocol's opaque
// payload (the EXECSHARD frame), so it only needs to be a string. The first line is the operation header — fields
// joined by the same 0x1f separator core.Item.Key uses — and every
// following line is one record, its fields 0x1f-joined:
//
//	TUPLES <rel>                         → "+v1␟v2" / "-v1␟v2" lines
//	SELECT <rel> <attr> <class> …        → signed tuple lines (as TUPLES)
//	EVAL <rel>   + item lines            → "true"/"false" lines, in order
//	PREPARE <gid> + op lines             → "prepared <n>"
//	COMMIT <gid>                         → "committed" | "unknown"
//	ABORT <gid>                          → "aborted"
//	APPLY <gid>  + op lines              → "applied"
//
// An op line is "<kind>␟<flag>␟<rel>␟<v1>␟<v2>…": kind is assert, deny or
// retract, and flag is "tx" for an op of a transaction or "bare" for
// catalog.TxOp.Bare — the autocommit statement, which unlike a transaction
// refuses to replace a stored tuple of the opposite sign. Values therefore
// must not contain 0x1f or newline — the same
// constraint core.Item.Key and the HQL dump already impose on node names.
// Encoders reject offending values; the decoders are strict so a corrupted
// frame fails loudly instead of applying a mangled operation.

// sep separates fields within one line of a shard operation.
const sep = "\x1f"

// OpIdempotent reports whether a shard operation is safe to retry on a
// fresh connection after a transport error. All shard operations are:
// reads trivially, and the 2PC verbs because they are gid-guarded on the
// participant (a duplicate PREPARE overwrites the same journal entry, a
// duplicate COMMIT/ABORT/APPLY of a finished gid answers from the done
// set without re-applying).
func OpIdempotent(op string) bool { return op != "" }

// checkWireSafe rejects values that would corrupt the line format.
func checkWireSafe(vals []string) error {
	for _, v := range vals {
		if strings.ContainsAny(v, sep+"\n") {
			return fmt.Errorf("shard: value %q contains a wire separator byte", v)
		}
	}
	return nil
}

// EncodeTuples builds the TUPLES op: dump a relation's stored tuples.
func EncodeTuples(rel string) (string, error) {
	if err := checkWireSafe([]string{rel}); err != nil {
		return "", err
	}
	return "TUPLES" + sep + rel, nil
}

// EncodeSelect builds the SELECT op: run a per-shard selection push-down
// and return the matching stored tuples (unconsolidated — the coordinator
// consolidates after the cross-shard merge).
func EncodeSelect(rel string, conds [][2]string) (string, error) {
	fields := []string{"SELECT", rel}
	for _, c := range conds {
		fields = append(fields, c[0], c[1])
	}
	if err := checkWireSafe(fields); err != nil {
		return "", err
	}
	return strings.Join(fields, sep), nil
}

// EncodeEval builds the EVAL op: batch-evaluate items against a relation.
func EncodeEval(rel string, items []core.Item) (string, error) {
	if err := checkWireSafe([]string{rel}); err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("EVAL" + sep + rel)
	for _, it := range items {
		if err := checkWireSafe(it); err != nil {
			return "", err
		}
		b.WriteString("\n")
		b.WriteString(strings.Join(it, sep))
	}
	return b.String(), nil
}

// EncodePrepare builds the PREPARE op of a two-phase commit.
func EncodePrepare(gid string, ops []catalog.TxOp) (string, error) {
	return encodeWithOps("PREPARE", gid, ops)
}

// EncodeCommit builds the COMMIT op of a two-phase commit.
func EncodeCommit(gid string) (string, error) {
	if err := checkWireSafe([]string{gid}); err != nil {
		return "", err
	}
	return "COMMIT" + sep + gid, nil
}

// EncodeAbort builds the ABORT op of a two-phase commit.
func EncodeAbort(gid string) (string, error) {
	if err := checkWireSafe([]string{gid}); err != nil {
		return "", err
	}
	return "ABORT" + sep + gid, nil
}

// EncodeApply builds the APPLY op: the commit-recovery fallback that
// re-sends a transaction's operations to a participant that lost its
// in-memory journal (restart, failover) between PREPARE and COMMIT.
func EncodeApply(gid string, ops []catalog.TxOp) (string, error) {
	return encodeWithOps("APPLY", gid, ops)
}

// The op line's flag field: TxOp.Bare, spelled out.
const (
	flagTx   = "tx"
	flagBare = "bare"
)

func encodeWithOps(verb, gid string, ops []catalog.TxOp) (string, error) {
	if err := checkWireSafe([]string{gid}); err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(verb + sep + gid)
	for _, o := range ops {
		if !catalog.IsTupleOp(o.Kind) {
			return "", fmt.Errorf("shard: %s is not an assert, deny or retract", o.Kind)
		}
		if err := checkWireSafe(append([]string{o.Relation}, o.Values...)); err != nil {
			return "", err
		}
		flag := flagTx
		if o.Bare {
			flag = flagBare
		}
		b.WriteString("\n")
		b.WriteString(o.Kind + sep + flag + sep + o.Relation)
		for _, v := range o.Values {
			b.WriteString(sep)
			b.WriteString(v)
		}
	}
	return b.String(), nil
}

// EncodeTupleLines renders signed tuples as response lines (node side).
func EncodeTupleLines(tuples []core.Tuple) string {
	var b strings.Builder
	for i, t := range tuples {
		if i > 0 {
			b.WriteString("\n")
		}
		if t.Sign {
			b.WriteString("+")
		} else {
			b.WriteString("-")
		}
		b.WriteString(strings.Join(t.Item, sep))
	}
	return b.String()
}

// DecodeTuples parses a TUPLES/SELECT response back into signed tuples.
func DecodeTuples(resp string) ([]core.Tuple, error) {
	if resp == "" {
		return nil, nil
	}
	lines := strings.Split(resp, "\n")
	out := make([]core.Tuple, 0, len(lines))
	for _, ln := range lines {
		if ln == "" {
			continue
		}
		var sign bool
		switch ln[0] {
		case '+':
			sign = true
		case '-':
			sign = false
		default:
			return nil, fmt.Errorf("shard: malformed tuple line %q (no sign byte)", ln)
		}
		out = append(out, core.Tuple{Item: core.Item(strings.Split(ln[1:], sep)), Sign: sign})
	}
	return out, nil
}

// DecodeBools parses an EVAL response.
func DecodeBools(resp string) ([]bool, error) {
	if resp == "" {
		return nil, nil
	}
	lines := strings.Split(resp, "\n")
	out := make([]bool, 0, len(lines))
	for _, ln := range lines {
		switch ln {
		case "true":
			out = append(out, true)
		case "false":
			out = append(out, false)
		case "":
		default:
			return nil, fmt.Errorf("shard: malformed EVAL line %q", ln)
		}
	}
	return out, nil
}

// parsedOp is a decoded shard operation (node side).
type parsedOp struct {
	verb   string
	fields []string // header fields after the verb
	lines  []string // record lines, still encoded
}

// parseOp splits an operation into its header and record lines.
func parseOp(input string) (parsedOp, error) {
	head, rest, hasBody := strings.Cut(input, "\n")
	fields := strings.Split(head, sep)
	if fields[0] == "" {
		return parsedOp{}, fmt.Errorf("shard: empty operation")
	}
	op := parsedOp{verb: fields[0], fields: fields[1:]}
	if hasBody && rest != "" {
		op.lines = strings.Split(rest, "\n")
	}
	return op, nil
}

// decodeOps parses PREPARE/APPLY record lines into transaction operations.
func decodeOps(lines []string) ([]catalog.TxOp, error) {
	ops := make([]catalog.TxOp, 0, len(lines))
	for _, ln := range lines {
		if ln == "" {
			continue
		}
		f := strings.Split(ln, sep)
		if len(f) < 3 {
			return nil, fmt.Errorf("shard: malformed op line %q", ln)
		}
		if !catalog.IsTupleOp(f[0]) {
			return nil, fmt.Errorf("shard: unknown op kind %q", f[0])
		}
		if f[1] != flagTx && f[1] != flagBare {
			return nil, fmt.Errorf("shard: unknown op flag %q", f[1])
		}
		ops = append(ops, catalog.TxOp{Kind: f[0], Relation: f[2], Values: f[3:], Bare: f[1] == flagBare})
	}
	return ops, nil
}

// decodeItems parses EVAL record lines into items.
func decodeItems(lines []string) []core.Item {
	items := make([]core.Item, 0, len(lines))
	for _, ln := range lines {
		if ln == "" {
			continue
		}
		items = append(items, core.Item(strings.Split(ln, sep)))
	}
	return items
}
