package catalog

import (
	"errors"
	"fmt"

	"hrdb/internal/core"
)

// The mutation vocabulary: every change a database can undergo is one TxOp
// of one of these kinds. The strings are also the write-ahead log's record
// names, so an op is logged under the name it was issued with.
//
//	kind               Relation     Values
//	create_hierarchy   domain       —
//	add_class          domain       name, parents…
//	add_instance       domain       name, parents…
//	add_edge           domain       parent, child
//	prefer             domain       stronger, weaker
//	drop_node          domain       name
//	create_relation    relation     attr1, domain1, attr2, domain2, …
//	drop_relation      relation     —
//	assert/deny        relation     the item's values
//	retract            relation     the item's values
//	consolidate        relation     —
//	explicate          relation     attributes (none = all)
//	set_mode           relation     off-path | on-path | none
//	set_policy         —            allow | warn | forbid
const (
	KindCreateHierarchy = "create_hierarchy"
	KindAddClass        = "add_class"
	KindAddInstance     = "add_instance"
	KindAddEdge         = "add_edge"
	KindPrefer          = "prefer"
	KindDropNode        = "drop_node"
	KindCreateRelation  = "create_relation"
	KindDropRelation    = "drop_relation"
	KindAssert          = "assert"
	KindDeny            = "deny"
	KindRetract         = "retract"
	KindConsolidate     = "consolidate"
	KindExplicate       = "explicate"
	KindSetMode         = "set_mode"
	KindSetPolicy       = "set_policy"
)

// TxOp is one mutation in serializable form: what the query language
// issues, the write-ahead log records, a replica replays and a shard
// participant journals.
type TxOp struct {
	Kind     string
	Relation string // the domain, for the hierarchy kinds
	Values   []string
	// Bare marks an assert, deny or retract issued as a statement of its
	// own rather than inside a transaction. It applies as a unit of its own
	// — which, unlike a transaction, refuses to replace a stored tuple of
	// the opposite sign — and is logged as a bare record.
	// It means nothing on the other kinds.
	Bare bool
}

// ErrBadOp indicates an op of unknown kind or with a malformed argument
// list.
var ErrBadOp = errors.New("catalog: malformed operation")

// IsTupleOp reports whether the kind is a tuple update (assert, deny or
// retract) — the ops that may share a transaction.
func IsTupleOp(kind string) bool {
	return kind == KindAssert || kind == KindDeny || kind == KindRetract
}

// InTx reports whether the op belongs to a transaction: a tuple update not
// marked Bare.
func (o TxOp) InTx() bool { return IsTupleOp(o.Kind) && !o.Bare }

var (
	modes    = []core.Preemption{core.OffPath, core.OnPath, core.NoPreemption}
	policies = []ExceptionPolicy{AllowExceptions, WarnExceptions, ForbidExceptions}
)

// parseNamed decodes v as the String form of one of the choices.
func parseNamed[T fmt.Stringer](what, v string, choices []T) (T, error) {
	for _, c := range choices {
		if c.String() == v {
			return c, nil
		}
	}
	var zero T
	return zero, fmt.Errorf("%w: unknown %s %q", ErrBadOp, what, v)
}

// check rejects an unknown kind or a malformed argument list.
func (o TxOp) check() error {
	n, ok := len(o.Values), true
	switch o.Kind {
	case KindCreateHierarchy, KindDropRelation, KindConsolidate, KindExplicate,
		KindAssert, KindDeny, KindRetract:
	case KindAddClass, KindAddInstance:
		ok = n >= 1
	case KindAddEdge, KindPrefer:
		ok = n == 2
	case KindCreateRelation:
		ok = n%2 == 0
	case KindDropNode:
		ok = n == 1
	case KindSetMode:
		if ok = n == 1; ok {
			_, err := parseNamed("mode", o.Values[0], modes)
			return err
		}
	case KindSetPolicy:
		if ok = n == 1; ok {
			_, err := parseNamed("policy", o.Values[0], policies)
			return err
		}
	default:
		return fmt.Errorf("%w: unknown kind %q", ErrBadOp, o.Kind)
	}
	if !ok {
		return fmt.Errorf("%w: %s with %d arguments", ErrBadOp, o.Kind, n)
	}
	return nil
}

// Apply applies the described mutations in order and returns the exception
// warnings they raised (WarnExceptions), in op order. It is the one place an
// op becomes a catalog or hierarchy call: the query language, the storage
// layer's write path, crash recovery and replicas all come through here.
//
// A batch is first checked as a whole: an unknown kind or a malformed
// argument list rejects it with nothing applied. Then every run of
// consecutive assert/deny/retract ops is one transaction, whatever its
// length — either the whole run takes effect and the ambiguity constraint
// holds over every touched relation, or none of it does (§3.1) — and any
// other op applies at its position on its own: a Bare tuple update as a
// unit of one (a bare assert is Assert, and so on), the rest through their
// Database method. A batch that fails returns no warnings.
//
// Apply is the replay contract of the write-ahead log. It is deterministic
// — given equal database states, the same ops yield the same resulting
// state and the same accept/reject outcome — so replaying a logged batch
// cannot diverge from the original run.
func (db *Database) Apply(ops []TxOp) ([]string, error) {
	for _, o := range ops {
		if err := o.check(); err != nil {
			return nil, err
		}
	}
	var warnings []string
	for i := 0; i < len(ops); {
		var w []string
		var err error
		if ops[i].InTx() {
			tx := db.Begin()
			for ; i < len(ops) && ops[i].InTx(); i++ {
				tx.ops = append(tx.ops, ops[i])
			}
			w, err = tx.commit()
		} else {
			w, err = db.applyOne(ops[i])
			i++
		}
		if err != nil {
			return nil, err
		}
		warnings = append(warnings, w...)
	}
	return warnings, nil
}

// ApplyOps is Apply without the warnings.
func (db *Database) ApplyOps(ops []TxOp) error {
	_, err := db.Apply(ops)
	return err
}

// applyOne executes one checked op on its own.
func (db *Database) applyOne(o TxOp) ([]string, error) {
	switch o.Kind {
	case KindAssert, KindDeny, KindRetract:
		w, _, err := db.commit([]TxOp{o})
		return w, err
	case KindCreateHierarchy:
		_, err := db.CreateHierarchy(o.Relation)
		return nil, err
	case KindAddClass, KindAddInstance, KindAddEdge, KindPrefer:
		// Under the write lock, as every hierarchy edit: readers such as
		// ReadAll walk the hierarchies under the read lock.
		db.mu.Lock()
		defer db.mu.Unlock()
		h, ok := db.hierarchies[o.Relation]
		if !ok {
			return nil, fmt.Errorf("%w: hierarchy %q", ErrNotFound, o.Relation)
		}
		switch o.Kind {
		case KindAddClass:
			return nil, h.AddClass(o.Values[0], o.Values[1:]...)
		case KindAddInstance:
			return nil, h.AddInstance(o.Values[0], o.Values[1:]...)
		case KindAddEdge:
			return nil, h.AddEdge(o.Values[0], o.Values[1])
		default:
			return nil, h.Prefer(o.Values[0], o.Values[1])
		}
	case KindDropNode:
		return nil, db.DropNode(o.Relation, o.Values[0])
	case KindCreateRelation:
		attrs := make([]AttrSpec, 0, len(o.Values)/2)
		for i := 0; i < len(o.Values); i += 2 {
			attrs = append(attrs, AttrSpec{Name: o.Values[i], Domain: o.Values[i+1]})
		}
		_, err := db.CreateRelation(o.Relation, attrs...)
		return nil, err
	case KindDropRelation:
		return nil, db.DropRelation(o.Relation)
	case KindConsolidate:
		_, err := db.Consolidate(o.Relation)
		return nil, err
	case KindExplicate:
		return nil, db.Explicate(o.Relation, o.Values...)
	case KindSetMode:
		mode, _ := parseNamed("mode", o.Values[0], modes) // checked
		return nil, db.SetMode(o.Relation, mode)
	default: // KindSetPolicy: check admitted no other kind
		p, _ := parseNamed("policy", o.Values[0], policies) // checked
		db.SetPolicy(p)
		return nil, nil
	}
}
