package hql

import (
	"fmt"
	"strings"

	"hrdb/internal/catalog"
)

// Render serializes a parsed statement back to HQL text (without the
// trailing semicolon) such that Parse(Render(st)) yields st again, with
// uniform quoting, keyword casing and clause order however the client
// spelled it.
func Render(st Stmt) string {
	switch st := st.(type) {
	case CreateHierarchyStmt:
		return "CREATE HIERARCHY " + quote(st.Domain)
	case ClassStmt:
		return renderNode("CLASS", st.Name, st.Parents, st.Domain)
	case InstanceStmt:
		return renderNode("INSTANCE", st.Name, st.Parents, st.Domain)
	case EdgeStmt:
		return fmt.Sprintf("EDGE %s: %s -> %s", quote(st.Domain), quote(st.Parent), quote(st.Child))
	case PreferStmt:
		return fmt.Sprintf("PREFER %s OVER %s IN %s", quote(st.Stronger), quote(st.Weaker), quote(st.Domain))
	case CreateRelationStmt:
		attrs := make([]string, len(st.Attrs))
		for i, a := range st.Attrs {
			attrs[i] = quote(a[0]) + ": " + quote(a[1])
		}
		return fmt.Sprintf("CREATE RELATION %s (%s)", quote(st.Name), strings.Join(attrs, ", "))
	case DropRelationStmt:
		return "DROP RELATION " + quote(st.Name)
	case AssertStmt:
		kw := "ASSERT"
		if !st.Sign {
			kw = "DENY"
		}
		return fmt.Sprintf("%s %s (%s)", kw, quote(st.Relation), quoteList(st.Values))
	case RetractStmt:
		return fmt.Sprintf("RETRACT %s (%s)", quote(st.Relation), quoteList(st.Values))
	case HoldsStmt:
		return fmt.Sprintf("HOLDS %s (%s)", quote(st.Relation), quoteList(st.Values))
	case WhyStmt:
		return fmt.Sprintf("WHY %s (%s)", quote(st.Relation), quoteList(st.Values))
	case SelectStmt:
		var b strings.Builder
		b.WriteString("SELECT FROM ")
		b.WriteString(quote(st.Relation))
		for i, c := range st.Conds {
			if i == 0 {
				b.WriteString(" WHERE ")
			} else {
				b.WriteString(" AND ")
			}
			b.WriteString(quote(c[0]))
			b.WriteString(" UNDER ")
			b.WriteString(quote(c[1]))
		}
		if st.As != "" {
			b.WriteString(" AS ")
			b.WriteString(quote(st.As))
		}
		return b.String()
	case ExtensionStmt:
		return "EXTENSION " + quote(st.Relation)
	case ConsolidateStmt:
		return "CONSOLIDATE " + quote(st.Relation)
	case ExplicateStmt:
		if len(st.Attrs) == 0 {
			return "EXPLICATE " + quote(st.Relation)
		}
		return fmt.Sprintf("EXPLICATE %s ON (%s)", quote(st.Relation), quoteList(st.Attrs))
	case BinOpStmt:
		return fmt.Sprintf("%s %s %s AS %s", strings.ToUpper(st.Op), quote(st.Left), quote(st.Right), quote(st.As))
	case ProjectStmt:
		return fmt.Sprintf("PROJECT %s ON (%s) AS %s", quote(st.Relation), quoteList(st.Attrs), quote(st.As))
	case CreateViewStmt:
		// Query is already canonical (the parser stores Render of the
		// defining statement), so it embeds verbatim.
		return fmt.Sprintf("CREATE MATERIALIZED VIEW %s AS %s", quote(st.Name), st.Query)
	case DropViewStmt:
		return "DROP VIEW " + quote(st.Name)
	case ShowStmt:
		switch st.What {
		case "hierarchy", "relation", "view":
			return fmt.Sprintf("SHOW %s %s", strings.ToUpper(st.What), quote(st.Target))
		default:
			return "SHOW " + strings.ToUpper(st.What)
		}
	case SetPolicyStmt:
		return "SET POLICY " + st.Policy
	case SetModeStmt:
		return fmt.Sprintf("SET MODE %s %s", quote(st.Relation), st.Mode)
	case DropNodeStmt:
		return fmt.Sprintf("DROP NODE %s IN %s", quote(st.Name), quote(st.Domain))
	case RuleStmt:
		var b strings.Builder
		b.WriteString("RULE ")
		b.WriteString(renderAtom(st.Head))
		for i, a := range st.Body {
			if i == 0 {
				b.WriteString(" IF ")
			} else {
				b.WriteString(" AND ")
			}
			if a.Negated {
				b.WriteString("NOT ")
			}
			b.WriteString(renderAtom(a))
		}
		return b.String()
	case InferStmt:
		return "INFER " + renderAtom(st.Goal)
	case CountStmt:
		if len(st.By) == 0 {
			return "COUNT " + quote(st.Relation)
		}
		return fmt.Sprintf("COUNT %s BY (%s)", quote(st.Relation), quoteList(st.By))
	case DumpStmt:
		return "DUMP"
	case ExplainStmt:
		return "EXPLAIN " + Render(st.Inner)
	case BeginStmt:
		return "BEGIN"
	case CommitStmt:
		return "COMMIT"
	case RollbackStmt:
		return "ROLLBACK"
	default:
		// Unreachable for statements produced by Parse; loud for new kinds
		// whose renderer was forgotten.
		return fmt.Sprintf("-- unrenderable statement %T", st)
	}
}

// RenderOp renders a mutation as the statement that issues it (DESIGN.md
// §4b's kind → statement table): a session executing the text issues op
// again. A shard coordinator sends catalog ops to its shards this way. op
// must be well formed, as every op a Session issues is.
func RenderOp(op TxOp) string {
	v := op.Values
	var st Stmt
	switch op.Kind {
	case catalog.KindCreateHierarchy:
		st = CreateHierarchyStmt{Domain: op.Relation}
	case catalog.KindAddClass:
		st = ClassStmt{Name: v[0], Parents: v[1:], Domain: op.Relation}
	case catalog.KindAddInstance:
		st = InstanceStmt{Name: v[0], Parents: v[1:], Domain: op.Relation}
	case catalog.KindAddEdge:
		st = EdgeStmt{Domain: op.Relation, Parent: v[0], Child: v[1]}
	case catalog.KindPrefer:
		st = PreferStmt{Domain: op.Relation, Stronger: v[0], Weaker: v[1]}
	case catalog.KindDropNode:
		st = DropNodeStmt{Domain: op.Relation, Name: v[0]}
	case catalog.KindCreateRelation:
		attrs := make([][2]string, len(v)/2)
		for i := range attrs {
			attrs[i] = [2]string{v[2*i], v[2*i+1]}
		}
		st = CreateRelationStmt{Name: op.Relation, Attrs: attrs}
	case catalog.KindDropRelation:
		st = DropRelationStmt{Name: op.Relation}
	case catalog.KindAssert, catalog.KindDeny:
		st = AssertStmt{Relation: op.Relation, Values: v, Sign: op.Kind == catalog.KindAssert}
	case catalog.KindRetract:
		st = RetractStmt{Relation: op.Relation, Values: v}
	case catalog.KindConsolidate:
		st = ConsolidateStmt{Relation: op.Relation}
	case catalog.KindExplicate:
		st = ExplicateStmt{Relation: op.Relation, Attrs: v}
	case catalog.KindSetMode: // the op spells off-path, the statement off_path
		st = SetModeStmt{Relation: op.Relation, Mode: strings.ReplaceAll(v[0], "-", "_")}
	case catalog.KindSetPolicy:
		st = SetPolicyStmt{Policy: v[0]}
	}
	return Render(st)
}

// RenderScript renders statements as a semicolon-terminated script.
func RenderScript(stmts []Stmt) string {
	var b strings.Builder
	for _, st := range stmts {
		b.WriteString(Render(st))
		b.WriteString(";\n")
	}
	return b.String()
}

// renderNode renders CLASS/INSTANCE with their optional clauses.
func renderNode(kw, name string, parents []string, domain string) string {
	var b strings.Builder
	b.WriteString(kw)
	b.WriteString(" ")
	b.WriteString(quote(name))
	if len(parents) > 0 {
		b.WriteString(" UNDER ")
		b.WriteString(quoteList(parents))
	}
	if domain != "" {
		b.WriteString(" IN ")
		b.WriteString(quote(domain))
	}
	return b.String()
}

// renderAtom renders pred(arg, …); '?'-prefixed variables pass through the
// lexer unquoted, so they are emitted as-is.
func renderAtom(a AtomSpec) string {
	args := make([]string, len(a.Args))
	for i, arg := range a.Args {
		if strings.HasPrefix(arg, "?") {
			args[i] = arg
		} else {
			args[i] = quote(arg)
		}
	}
	return fmt.Sprintf("%s(%s)", quote(a.Pred), strings.Join(args, ", "))
}

// quoteList quotes and comma-joins a value list.
func quoteList(vals []string) string {
	q := make([]string, len(vals))
	for i, v := range vals {
		q[i] = quote(v)
	}
	return strings.Join(q, ", ")
}
