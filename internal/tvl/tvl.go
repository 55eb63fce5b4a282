// Package tvl implements the three-valued, open-world reading of
// hierarchical relations sketched in §4 of Jagadish (SIGMOD '89): "through
// the use of … three-valued (positive, negative, and unknown) rather than
// two-valued assertions, it may be possible to have a sound and
// conceptually pleasing treatment of partial information."
//
// Under the closed-world assumption the universal negated tuple makes every
// unmentioned item false; dropping it, an item with no applicable tuple is
// Unknown. Items whose strongest-binding tuples conflict are also reported
// Unknown here (with the conflict preserved in the error), matching the
// paper's footnote 4: without the closed world a negated tuple reads "not
// known to hold".
package tvl

import (
	"errors"

	"hrdb/internal/core"
)

// Truth is a Kleene three-valued truth value.
type Truth int8

// The three truth values.
const (
	False Truth = iota
	Unknown
	True
)

// String names the truth value.
func (t Truth) String() string {
	switch t {
	case True:
		return "true"
	case False:
		return "false"
	default:
		return "unknown"
	}
}

// FromBool lifts a boolean.
func FromBool(b bool) Truth {
	if b {
		return True
	}
	return False
}

// And is Kleene conjunction.
func And(a, b Truth) Truth {
	if a == False || b == False {
		return False
	}
	if a == True && b == True {
		return True
	}
	return Unknown
}

// Or is Kleene disjunction.
func Or(a, b Truth) Truth {
	if a == True || b == True {
		return True
	}
	if a == False && b == False {
		return False
	}
	return Unknown
}

// Not is Kleene negation.
func Not(a Truth) Truth {
	switch a {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// Evaluate computes the open-world truth value of an item: True/False when
// a tuple binds strongest, Unknown when no tuple applies (the closed-world
// default) or when the strongest binders conflict. Validation errors
// (arity, unknown values) are returned as errors.
func Evaluate(r *core.Relation, item core.Item) (Truth, error) {
	return interpret(r.Evaluate(item))
}

// interpret maps a closed-world verdict and error to the open-world Truth:
// ambiguity conflicts and closed-world defaults both read Unknown.
func interpret(v core.Verdict, err error) (Truth, error) {
	if err != nil {
		var ce *core.ConflictError
		if errors.As(err, &ce) {
			return Unknown, nil
		}
		return Unknown, err
	}
	if v.Default {
		return Unknown, nil
	}
	return FromBool(v.Value), nil
}

// Holds is Evaluate on a value list.
func Holds(r *core.Relation, values ...string) (Truth, error) {
	return Evaluate(r, core.Item(values))
}
