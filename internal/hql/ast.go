package hql

// Stmt is a parsed HQL statement. Every statement kind must declare its
// read-only classification to satisfy the interface: adding a statement
// without deciding whether it mutates is a compile error, not a silent
// "routes to replicas" default. See readonly.go for what counts as
// read-only.
type Stmt interface {
	stmt()
	// readOnly reports that executing the statement leaves the database,
	// the session's transaction buffer, and the session's rule set
	// untouched.
	readOnly() bool
}

// CreateHierarchyStmt — CREATE HIERARCHY <domain>.
type CreateHierarchyStmt struct{ Domain string }

// ClassStmt — CLASS <name> UNDER <parent> [, <parent>…]. The hierarchy is
// inferred from the first parent's domain unless Domain is set via
// "CLASS <name> IN <domain>" (root-level class).
type ClassStmt struct {
	Name    string
	Parents []string
	Domain  string // set when UNDER is omitted: CLASS x IN Animal
}

// InstanceStmt — INSTANCE <name> UNDER <parent> [, …] / IN <domain>.
type InstanceStmt struct {
	Name    string
	Parents []string
	Domain  string
}

// EdgeStmt — EDGE <domain>: <parent> -> <child>.
type EdgeStmt struct {
	Domain string
	Parent string
	Child  string
}

// PreferStmt — PREFER <stronger> OVER <weaker> IN <domain>.
type PreferStmt struct {
	Domain   string
	Stronger string
	Weaker   string
}

// CreateRelationStmt — CREATE RELATION <name> (<attr>: <domain>, …).
type CreateRelationStmt struct {
	Name  string
	Attrs [][2]string // (attr, domain)
}

// DropRelationStmt — DROP RELATION <name>.
type DropRelationStmt struct{ Name string }

// AssertStmt — ASSERT <rel> (<v>, …) / DENY <rel> (<v>, …).
type AssertStmt struct {
	Relation string
	Values   []string
	Sign     bool
}

// RetractStmt — RETRACT <rel> (<v>, …).
type RetractStmt struct {
	Relation string
	Values   []string
}

// HoldsStmt — HOLDS <rel> (<v>, …).
type HoldsStmt struct {
	Relation string
	Values   []string
}

// WhyStmt — WHY <rel> (<v>, …): evaluation plus justification (Fig. 9).
type WhyStmt struct {
	Relation string
	Values   []string
}

// SelectStmt — SELECT FROM <rel> [WHERE <attr> UNDER <class> [AND …]]
// [AS <name>]. "attr = v" is shorthand for "attr UNDER v".
type SelectStmt struct {
	Relation string
	Conds    [][2]string // (attr, class)
	As       string
}

// ExtensionStmt — EXTENSION <rel>: print the flat extension.
type ExtensionStmt struct{ Relation string }

// ConsolidateStmt — CONSOLIDATE <rel>.
type ConsolidateStmt struct{ Relation string }

// ExplicateStmt — EXPLICATE <rel> [ON (<attr>, …)].
type ExplicateStmt struct {
	Relation string
	Attrs    []string
}

// BinOpStmt — UNION/INTERSECT/DIFFERENCE/JOIN <a> <b> AS <c>.
type BinOpStmt struct {
	Op    string // "union" | "intersect" | "difference" | "join"
	Left  string
	Right string
	As    string
}

// ProjectStmt — PROJECT <rel> ON (<attr>, …) AS <name>.
type ProjectStmt struct {
	Relation string
	Attrs    []string
	As       string
}

// ShowStmt — SHOW HIERARCHIES | SHOW RELATIONS | SHOW HIERARCHY <d> |
// SHOW RELATION <r>.
type ShowStmt struct {
	What   string // "hierarchies" | "relations" | "hierarchy" | "relation" | "views" | "view"
	Target string
}

// SetPolicyStmt — SET POLICY allow|warn|forbid.
type SetPolicyStmt struct{ Policy string }

// SetModeStmt — SET MODE <rel> off_path|on_path|none (paper appendix).
type SetModeStmt struct {
	Relation string
	Mode     string
}

// DropNodeStmt — DROP NODE <name> IN <domain>: remove a childless,
// unreferenced hierarchy node.
type DropNodeStmt struct {
	Domain string
	Name   string
}

// AtomSpec is a predicate applied to arguments; an argument starting with
// '?' is a Datalog variable.
type AtomSpec struct {
	Pred string
	Args []string
	// Negated marks a "NOT pred(args)" body literal (negation as failure;
	// the rule set must be stratified).
	Negated bool
}

// RuleStmt — RULE <head(args)> [IF <atom> [AND <atom>]…]: adds a Datalog
// rule (or a ground fact when the body is empty) to the session's program.
type RuleStmt struct {
	Head AtomSpec
	Body []AtomSpec
}

// InferStmt — INFER <atom>: runs the session's Datalog program over the
// database's relations (as EDB) and taxonomies (as isa/2) and prints the
// derivations.
type InferStmt struct{ Goal AtomSpec }

// CountStmt — COUNT <rel> [BY (<attr>, …)]: extension counts (§3.3.2's
// statistical use of explication).
type CountStmt struct {
	Relation string
	By       []string
}

// DumpStmt — DUMP: print an HQL script reproducing the database.
type DumpStmt struct{}

// ExplainStmt — EXPLAIN <select-or-binop>: render the access plan the
// cost-based planner would choose for the wrapped statement, without
// executing it. Only SELECT and the binary operators (UNION, INTERSECT,
// DIFFERENCE, JOIN) are explainable; the parser enforces this.
type ExplainStmt struct{ Inner Stmt }

// BeginStmt / CommitStmt / RollbackStmt — transaction control.
// CreateViewStmt — CREATE MATERIALIZED VIEW <name> AS <query>. Query is
// the canonical rendering (Render) of the defining statement, which must
// be a materializable read (SELECT without AS, EXTENSION, or COUNT).
type CreateViewStmt struct {
	Name  string
	Query string
}

// DropViewStmt — DROP VIEW <name>.
type DropViewStmt struct{ Name string }

type BeginStmt struct{}

// CommitStmt ends a transaction, applying it atomically.
type CommitStmt struct{}

// RollbackStmt discards the current transaction.
type RollbackStmt struct{}

func (CreateHierarchyStmt) stmt() {}
func (ClassStmt) stmt()           {}
func (InstanceStmt) stmt()        {}
func (EdgeStmt) stmt()            {}
func (PreferStmt) stmt()          {}
func (CreateRelationStmt) stmt()  {}
func (DropRelationStmt) stmt()    {}
func (AssertStmt) stmt()          {}
func (RetractStmt) stmt()         {}
func (HoldsStmt) stmt()           {}
func (WhyStmt) stmt()             {}
func (SelectStmt) stmt()          {}
func (ExtensionStmt) stmt()       {}
func (ConsolidateStmt) stmt()     {}
func (ExplicateStmt) stmt()       {}
func (BinOpStmt) stmt()           {}
func (ProjectStmt) stmt()         {}
func (ShowStmt) stmt()            {}
func (SetPolicyStmt) stmt()       {}
func (SetModeStmt) stmt()         {}
func (DropNodeStmt) stmt()        {}
func (RuleStmt) stmt()            {}
func (InferStmt) stmt()           {}
func (CountStmt) stmt()           {}
func (DumpStmt) stmt()            {}
func (ExplainStmt) stmt()         {}
func (CreateViewStmt) stmt()      {}
func (DropViewStmt) stmt()        {}
func (BeginStmt) stmt()           {}
func (CommitStmt) stmt()          {}
func (RollbackStmt) stmt()        {}

// Read-only classification, one explicit decision per statement kind (the
// Stmt interface requires it; see readonly.go for the contract).
func (CreateHierarchyStmt) readOnly() bool { return false }
func (ClassStmt) readOnly() bool           { return false }
func (InstanceStmt) readOnly() bool        { return false }
func (EdgeStmt) readOnly() bool            { return false }
func (PreferStmt) readOnly() bool          { return false }
func (CreateRelationStmt) readOnly() bool  { return false }
func (DropRelationStmt) readOnly() bool    { return false }
func (AssertStmt) readOnly() bool          { return false }
func (RetractStmt) readOnly() bool         { return false }
func (HoldsStmt) readOnly() bool           { return true }
func (WhyStmt) readOnly() bool             { return true }

// SELECT is read-only only without an AS clause: AS attaches the result to
// the database as a new relation.
func (s SelectStmt) readOnly() bool { return s.As == "" }

func (ExtensionStmt) readOnly() bool   { return true }
func (ConsolidateStmt) readOnly() bool { return false }
func (ExplicateStmt) readOnly() bool   { return false }

// BinOpStmt and ProjectStmt always carry an AS clause — they exist to
// create the derived relation.
func (BinOpStmt) readOnly() bool   { return false }
func (ProjectStmt) readOnly() bool { return false }

func (ShowStmt) readOnly() bool      { return true }
func (SetPolicyStmt) readOnly() bool { return false }
func (SetModeStmt) readOnly() bool   { return false }
func (DropNodeStmt) readOnly() bool  { return false }

// RULE mutates the session's Datalog program; INFER only runs it.
func (RuleStmt) readOnly() bool  { return false }
func (InferStmt) readOnly() bool { return true }

func (CountStmt) readOnly() bool { return true }
func (DumpStmt) readOnly() bool  { return true }

// EXPLAIN only plans — it never runs the wrapped statement, so even an
// EXPLAIN over a SELECT … AS or a binary operator attaches nothing.
func (ExplainStmt) readOnly() bool { return true }

// View DDL mutates the view catalog; the defining query inside CREATE
// MATERIALIZED VIEW is read-only but the registration is not.
func (CreateViewStmt) readOnly() bool { return false }
func (DropViewStmt) readOnly() bool   { return false }

// Transaction control mutates session transaction state.
func (BeginStmt) readOnly() bool    { return false }
func (CommitStmt) readOnly() bool   { return false }
func (RollbackStmt) readOnly() bool { return false }
