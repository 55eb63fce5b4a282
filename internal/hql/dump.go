package hql

import (
	"fmt"
	"strings"
	"unicode"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
	"hrdb/internal/hierarchy"
)

// Dump serializes a database to an HQL script that, executed against an
// empty database, reproduces it: hierarchies (classes, instances, extra
// and deliberately redundant edges, preferences), relations, tuples and
// the exception policy. The catalog comes from db and each relation's
// tuples from read (db.Snapshot, or a reader that fetches them from where
// they live). The output is deterministic.
func Dump(db *catalog.Database, read func(name string) (*core.Relation, error)) (string, error) {
	var b strings.Builder
	b.WriteString("-- hrdb dump\n")

	// The hierarchies are one cut, read under the catalog's lock; the
	// relations come from read.
	db.ReadAll(func(p catalog.ExceptionPolicy, hs []*hierarchy.Hierarchy, _ []*core.Relation) {
		switch p {
		case catalog.WarnExceptions:
			b.WriteString("SET POLICY warn;\n")
		case catalog.ForbidExceptions:
			b.WriteString("SET POLICY forbid;\n")
		}
		for _, h := range hs {
			domain := h.Domain()
			fmt.Fprintf(&b, "\nCREATE HIERARCHY %s;\n", quote(domain))
			for _, n := range h.TopoNodes() { // parents first
				if n == domain {
					continue
				}
				kw := "CLASS"
				if h.IsInstance(n) {
					kw = "INSTANCE"
				}
				parents := h.Parents(n)
				qp := make([]string, len(parents))
				for i, p := range parents {
					qp[i] = quote(p)
				}
				fmt.Fprintf(&b, "%s %s UNDER %s IN %s;\n", kw, quote(n), strings.Join(qp, ", "), quote(domain))
			}
			for _, pref := range h.Preferences() {
				fmt.Fprintf(&b, "PREFER %s OVER %s IN %s;\n", quote(pref[0]), quote(pref[1]), quote(domain))
			}
		}
	})

	for _, name := range db.Relations() {
		r, err := read(name)
		if err != nil {
			return "", err
		}
		s := r.Schema()
		attrs := make([]string, s.Arity())
		for i := 0; i < s.Arity(); i++ {
			a := s.Attr(i)
			attrs[i] = fmt.Sprintf("%s: %s", quote(a.Name), quote(a.Domain.Domain()))
		}
		fmt.Fprintf(&b, "\nCREATE RELATION %s (%s);\n", quote(name), strings.Join(attrs, ", "))
		switch r.Mode() {
		case core.OnPath:
			fmt.Fprintf(&b, "SET MODE %s on_path;\n", quote(name))
		case core.NoPreemption:
			fmt.Fprintf(&b, "SET MODE %s none;\n", quote(name))
		}
		// Tuples inside one transaction so interleaved exceptions commit
		// regardless of emission order.
		tuples := r.Tuples()
		if len(tuples) > 0 {
			b.WriteString("BEGIN;\n")
			for _, t := range tuples {
				stmt := "ASSERT"
				if !t.Sign {
					stmt = "DENY"
				}
				vals := make([]string, len(t.Item))
				for i, v := range t.Item {
					vals[i] = quote(v)
				}
				fmt.Fprintf(&b, "%s %s (%s);\n", stmt, quote(name), strings.Join(vals, ", "))
			}
			b.WriteString("COMMIT;\n")
		}
	}
	return b.String(), nil
}

// quote wraps a name in single quotes when it is not a plain identifier.
func quote(name string) string {
	plain := name != ""
	for _, r := range name {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) && r != '_' && r != '.' {
			plain = false
			break
		}
	}
	// Avoid keywords being re-parsed as statement heads inside lists (the
	// grammar is positional, so bare keywords are fine as values; only
	// non-identifier characters need quoting).
	if plain {
		return name
	}
	return "'" + name + "'"
}
