// Package frames implements a frame-based knowledge-representation front
// end on top of the hierarchical relational model, demonstrating the
// paper's claim (§1, §4) that "the hierarchical relational model can be
// used as a basis for implementing a frame-based knowledge representation
// system."
//
// Frames (classes and instances) live in one Thing hierarchy; each slot is
// a two-attribute hierarchical relation (Entity, Value). Slots are
// single-valued: setting a slot generates the explicit cancellation of the
// inherited value automatically, exactly the front-end behaviour §3.1
// describes ("a front end … can generate the negation of the 'inherited'
// tuple automatically whenever an exception is stated").
//
// Multiple-inheritance conflicts are surfaced as ErrNeedsResolution; the
// left-precedence resolution common in object systems (LISP Flavors is the
// paper's example) is provided by ResolveLeftPrecedence, which compiles the
// choice into explicit resolving tuples rather than changing the model's
// semantics.
package frames

import (
	"errors"
	"fmt"
	"sort"

	"hrdb/internal/core"
	"hrdb/internal/hierarchy"
)

// Sentinel errors.
var (
	// ErrNeedsResolution indicates a multiple-inheritance conflict that
	// needs explicit (or left-precedence) resolution.
	ErrNeedsResolution = errors.New("frames: slot value conflict needs resolution")
	// ErrUnknownFrame indicates a frame name not in the knowledge base.
	ErrUnknownFrame = errors.New("frames: unknown frame")
	// ErrUnknownSlot indicates a slot that was never set on any frame.
	ErrUnknownSlot = errors.New("frames: unknown slot")
)

// slotState holds one slot's value domain and relation.
type slotState struct {
	values *hierarchy.Hierarchy
	rel    *core.Relation
}

// KB is a frame knowledge base.
type KB struct {
	things *hierarchy.Hierarchy
	slots  map[string]*slotState
	// parentOrder preserves the declaration order of each frame's parents
	// for left-precedence resolution.
	parentOrder map[string][]string
}

// NewKB creates an empty knowledge base. The root frame is "Thing".
func NewKB() *KB {
	return &KB{
		things:      hierarchy.New("Thing"),
		slots:       map[string]*slotState{},
		parentOrder: map[string][]string{},
	}
}

// Things exposes the frame hierarchy (read-only by convention).
func (kb *KB) Things() *hierarchy.Hierarchy { return kb.things }

// DefClass declares a class frame under the given parents (Thing if none).
func (kb *KB) DefClass(name string, parents ...string) error {
	if err := kb.things.AddClass(name, parents...); err != nil {
		return err
	}
	kb.parentOrder[name] = append([]string(nil), parents...)
	return nil
}

// DefInstance declares an instance frame under the given parents.
func (kb *KB) DefInstance(name string, parents ...string) error {
	if err := kb.things.AddInstance(name, parents...); err != nil {
		return err
	}
	kb.parentOrder[name] = append([]string(nil), parents...)
	return nil
}

// Parents returns a frame's declared parents in declaration order.
func (kb *KB) Parents(name string) []string {
	return append([]string(nil), kb.parentOrder[name]...)
}

// slot returns (creating if needed) the slot's state.
func (kb *KB) slot(name string, create bool) (*slotState, error) {
	st, ok := kb.slots[name]
	if ok {
		return st, nil
	}
	if !create {
		return nil, fmt.Errorf("%w: %q", ErrUnknownSlot, name)
	}
	values := hierarchy.New("Value_" + name)
	schema, err := core.NewSchema(
		core.Attribute{Name: "Entity", Domain: kb.things},
		core.Attribute{Name: "Value", Domain: values},
	)
	if err != nil {
		return nil, err
	}
	st = &slotState{values: values, rel: core.NewRelation("slot_"+name, schema)}
	kb.slots[name] = st
	return st, nil
}

// Slots returns the known slot names, sorted.
func (kb *KB) Slots() []string {
	out := make([]string, 0, len(kb.slots))
	for n := range kb.slots {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SlotRelation exposes a slot's underlying hierarchical relation (Fig. 4's
// Animal–Color table is exactly a slot relation).
func (kb *KB) SlotRelation(slot string) (*core.Relation, error) {
	st, err := kb.slot(slot, false)
	if err != nil {
		return nil, err
	}
	return st.rel, nil
}

// Set assigns value to the frame's slot. Slots are single-valued: every
// other value the frame currently inherits (or is in conflict about) is
// explicitly cancelled with a negated tuple — the paper's explicit
// cancellation, generated by the front end.
func (kb *KB) Set(frame, slot, value string) error {
	if !kb.things.Has(frame) {
		return fmt.Errorf("%w: %q", ErrUnknownFrame, frame)
	}
	st, err := kb.slot(slot, true)
	if err != nil {
		return err
	}
	if !st.values.Has(value) {
		if err := st.values.AddInstance(value); err != nil {
			return err
		}
	}
	// Cancel every other currently visible value.
	for _, v := range st.values.AllLeaves() {
		if v == value {
			continue
		}
		item := core.Item{frame, v}
		verdict, verr := st.rel.Evaluate(item)
		visible := verr != nil || verdict.Value // conflicts count as visible
		if !visible {
			continue
		}
		if t, exact := st.rel.Lookup(item); exact {
			if t.Sign {
				st.rel.Retract(item)
				if err := st.rel.Insert(item, false); err != nil {
					return err
				}
			}
			continue
		}
		if err := st.rel.Insert(item, false); err != nil {
			return err
		}
	}
	item := core.Item{frame, value}
	if t, exact := st.rel.Lookup(item); exact && !t.Sign {
		st.rel.Retract(item)
	}
	if err := st.rel.Insert(item, true); err != nil {
		return err
	}
	// Descendant frames with their own exact positive pin on a different
	// value must not additionally inherit the new value (slots are
	// single-valued): cancel it there.
	for _, id := range kb.things.Reach(kb.things.IDOf(frame)).Members() {
		d := kb.things.NameOf(id)
		if d == frame {
			continue
		}
		pinned := false
		for _, v := range st.values.AllLeaves() {
			if v == value {
				continue
			}
			if t, ok := st.rel.Lookup(core.Item{d, v}); ok && t.Sign {
				pinned = true
				break
			}
		}
		if !pinned {
			continue
		}
		di := core.Item{d, value}
		if t, ok := st.rel.Lookup(di); ok {
			if t.Sign {
				st.rel.Retract(di)
				if err := st.rel.Insert(di, false); err != nil {
					return err
				}
			}
			continue
		}
		if err := st.rel.Insert(di, false); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the frame's slot value. ok is false when no value is known.
// A multiple-inheritance conflict returns ErrNeedsResolution (wrapping the
// underlying ConflictError).
func (kb *KB) Get(frame, slot string) (value string, ok bool, err error) {
	if !kb.things.Has(frame) {
		return "", false, fmt.Errorf("%w: %q", ErrUnknownFrame, frame)
	}
	st, err := kb.slot(slot, false)
	if err != nil {
		return "", false, err
	}
	var found []string
	for _, v := range st.values.AllLeaves() {
		verdict, verr := st.rel.Evaluate(core.Item{frame, v})
		if verr != nil {
			var ce *core.ConflictError
			if errors.As(verr, &ce) {
				return "", false, fmt.Errorf("%w: %s.%s: %v", ErrNeedsResolution, frame, slot, ce)
			}
			return "", false, verr
		}
		if verdict.Value {
			found = append(found, v)
		}
	}
	switch len(found) {
	case 0:
		return "", false, nil
	case 1:
		return found[0], true, nil
	default:
		// Two incomparable ancestors contributed different values with no
		// cancellation between them; treat as a resolvable conflict.
		return "", false, fmt.Errorf("%w: %s.%s has values %v", ErrNeedsResolution, frame, slot, found)
	}
}

// ResolveLeftPrecedence resolves a slot conflict at frame the way
// left-precedence object systems do: the value inherited via the leftmost
// declared parent wins. The choice is compiled into explicit tuples (an
// exact positive for the winner, exact negatives for the losers), so the
// database is consistent afterwards — the front-end-compilation strategy
// §2.1 describes.
func (kb *KB) ResolveLeftPrecedence(frame, slot string) (string, error) {
	if !kb.things.Has(frame) {
		return "", fmt.Errorf("%w: %q", ErrUnknownFrame, frame)
	}
	st, err := kb.slot(slot, false)
	if err != nil {
		return "", err
	}
	winner, err := kb.leftValue(frame, slot)
	if err != nil {
		return "", err
	}
	if winner == "" {
		return "", fmt.Errorf("frames: no inherited value for %s.%s", frame, slot)
	}
	// Compile the choice into explicit tuples.
	for _, v := range st.values.AllLeaves() {
		item := core.Item{frame, v}
		sign := v == winner
		if t, exact := st.rel.Lookup(item); exact {
			if t.Sign != sign {
				st.rel.Retract(item)
				if err := st.rel.Insert(item, sign); err != nil {
					return "", err
				}
			}
			continue
		}
		// Only pin values that are otherwise visible or conflicted.
		verdict, verr := st.rel.Evaluate(item)
		if verr == nil && !verdict.Value && !sign {
			continue
		}
		if err := st.rel.Insert(item, sign); err != nil {
			return "", err
		}
	}
	return winner, nil
}

// leftValue finds the value the frame inherits under left precedence: its
// own exact value if pinned, else the first parent's (recursively).
func (kb *KB) leftValue(frame, slot string) (string, error) {
	st, err := kb.slot(slot, false)
	if err != nil {
		return "", err
	}
	// Exact tuples on the frame win outright.
	for _, v := range st.values.AllLeaves() {
		if t, ok := st.rel.Lookup(core.Item{frame, v}); ok && t.Sign {
			return v, nil
		}
	}
	// Otherwise try a conflict-free evaluation.
	v, ok, err := kb.Get(frame, slot)
	if err == nil {
		if ok {
			return v, nil
		}
		return "", nil
	}
	if !errors.Is(err, ErrNeedsResolution) {
		return "", err
	}
	// Conflict: recurse down the declared parent list, leftmost first.
	for _, p := range kb.parentOrder[frame] {
		v, err := kb.leftValue(p, slot)
		if err != nil {
			return "", err
		}
		if v != "" {
			return v, nil
		}
	}
	return "", nil
}
