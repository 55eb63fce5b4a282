package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"hrdb/internal/hierarchy"
)

// The reference tests hold the row kernels to name-level references on
// tuples (reference_test.go, and the fast-path comparisons of eval_test.go
// and property_test.go). These adapters give them the tuple-level calls,
// mapping each tuple to the row it is stored in.

// rowsOf returns the rows the tuples are stored in.
func (r *Relation) rowsOf(ts []Tuple) []int32 {
	rows := make([]int32, len(ts))
	for i, t := range ts {
		n, ok := r.find(t.Item)
		if !ok {
			panic(fmt.Sprintf("%v is not stored in %q", t, r.name))
		}
		rows[i] = n
	}
	return rows
}

// sortGeneralFirst returns ts, which must be sorted by item key, in
// bindOrder.
func (r *Relation) sortGeneralFirst(ts []Tuple) []Tuple {
	order, _ := r.bindOrder(r.rowsOf(ts))
	out := make([]Tuple, len(order))
	for n, i := range order {
		out[n] = ts[i]
	}
	return out
}

// minimalTuples is minimal on the tuples' rows.
func (r *Relation) minimalTuples(ts []Tuple) []Tuple {
	var out []Tuple
	for _, p := range r.minimal(r.rowsOf(ts), nil) {
		out = append(out, ts[p])
	}
	return out
}

// bindersByElimination is eliminate on the applicable tuples' rows.
func (r *Relation) bindersByElimination(item Item, applicable []Tuple, keepRedundant bool) ([]Tuple, error) {
	ids, err := r.validateItem(item, nil)
	if err != nil {
		return nil, err
	}
	at, err := r.eliminate(item, ids, r.rowsOf(applicable), keepRedundant)
	if err != nil {
		return nil, err
	}
	out := make([]Tuple, 0, len(at))
	for _, p := range at {
		out = append(out, applicable[p])
	}
	return out, nil
}

// BindSubsumes is Subsumes over the binding graphs, on names: the
// references' binding order.
func (r *Relation) BindSubsumes(a, b Item) bool {
	for i := range a {
		h := r.schema.attrs[i].Domain
		if !h.BindSubsumesID(h.IDOf(a[i]), h.IDOf(b[i])) {
			return false
		}
	}
	return true
}

// DisplayValue renders one coordinate as Table does, by name: classes with
// a "∀" prefix, leaves bare.
func (r *Relation) DisplayValue(attr int, v string) string {
	if r.schema.attrs[attr].Domain.IsLeaf(v) {
		return v
	}
	return "∀" + v
}

// nameModel is the store as it was: tuples keyed by Item.Key().
type nameModel map[string]Tuple

func (m nameModel) clone() nameModel {
	c := nameModel{}
	for k, t := range m {
		c[k] = t
	}
	return c
}

// sorted returns the model's tuples in key order.
func (m nameModel) sorted() []Tuple {
	var out []Tuple
	for _, t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Item.Key() < out[j].Item.Key() })
	return out
}

// TestPropertyRowsMatchNameModel runs seeded sequences of writes against a
// relation and a name-keyed map of its tuples — inserts of both signs,
// duplicates, contradictions and unknown names; retractions of present and
// absent items, whose freed slots the next insert reuses; Clone, WithName,
// Consolidate and SetMode; removals of hierarchy leaves the tuples may name,
// and additions of a removed name again — and after every step holds each
// read of the store to a scan of the model. After a name comes back, the
// kernels are also held to their name-level references. A clone set aside
// midway is rechecked at the end, after its source has gone on changing.
func TestPropertyRowsMatchNameModel(t *testing.T) {
	for seed := int64(1); seed <= propertySeeds(t)*4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomSchema(rng)
		var pools [][]string
		for i := 0; i < s.Arity(); i++ {
			pools = append(pools, append(s.Attr(i).Domain.Nodes(), "nope"))
		}
		type node struct {
			col  int
			name string
		}
		var removed []node
		randomItem := func() Item {
			item := make(Item, s.Arity())
			for i := range item {
				item[i] = pools[i][rng.Intn(len(pools[i])-1)]
				if rng.Intn(40) == 0 {
					item[i] = "nope"
				}
			}
			return item
		}
		r, model := NewRelation("R", s), nameModel{}
		var aside *Relation
		var asideModel nameModel
		for step := 0; step < 120; step++ {
			what := ""
			reference := false
			switch op := rng.Intn(22); {
			case op < 10:
				item, sign := randomItem(), rng.Intn(2) == 0
				what = fmt.Sprintf("Insert(%v, %v)", item, sign)
				slots := len(r.rows)
				reuse := len(r.free) > 0
				err := r.Insert(item, sign)
				old, present := model[item.Key()]
				switch {
				case r.validateItemErr(item) != nil:
					if !errors.Is(err, ErrUnknownValue) {
						t.Fatalf("seed %d step %d: %s = %v, want ErrUnknownValue", seed, step, what, err)
					}
				case present && old.Sign != sign:
					if !errors.Is(err, ErrContradiction) {
						t.Fatalf("seed %d step %d: %s = %v, want ErrContradiction", seed, step, what, err)
					}
				case present:
					if err != nil {
						t.Fatalf("seed %d step %d: duplicate %s = %v", seed, step, what, err)
					}
				default:
					if err != nil {
						t.Fatalf("seed %d step %d: %s = %v", seed, step, what, err)
					}
					model[item.Key()] = Tuple{Item: item.Clone(), Sign: sign}
					if reuse && len(r.rows) != slots {
						t.Fatalf("seed %d step %d: %s grew the slab to %d rows with a free slot", seed, step, what, len(r.rows))
					}
				}
			case op < 15:
				item := randomItem()
				if ts := model.sorted(); len(ts) > 0 && rng.Intn(3) > 0 {
					item = ts[rng.Intn(len(ts))].Item.Clone()
				}
				what = fmt.Sprintf("Retract(%v)", item)
				_, present := model[item.Key()]
				if got := r.Retract(item); got != present {
					t.Fatalf("seed %d step %d: %s = %v, model has it: %v", seed, step, what, got, present)
				}
				delete(model, item.Key())
			case op == 15:
				what = "Clone"
				if aside == nil {
					aside, asideModel = r.Clone(), model.clone()
				}
				r = r.Clone()
			case op == 16:
				what = "WithName"
				r = r.WithName(fmt.Sprintf("R%d", step))
				if r.Name() != fmt.Sprintf("R%d", step) {
					t.Fatalf("seed %d step %d: WithName kept %q", seed, step, r.Name())
				}
			case op == 17:
				what = "Consolidate"
				want := refConsolidate(r).Tuples()
				r, model = r.Consolidate(), nameModel{}
				for _, tu := range want {
					model[tu.Item.Key()] = tu
				}
			case op == 18:
				i := rng.Intn(s.Arity())
				h := s.Attr(i).Domain
				var leaves []string
				for _, v := range h.Nodes() {
					if h.IsLeaf(v) && v != h.Domain() {
						leaves = append(leaves, v)
					}
				}
				if len(leaves) > 1 {
					v := leaves[rng.Intn(len(leaves))]
					what = fmt.Sprintf("RemoveLeaf(%s)", v)
					must(t, h.RemoveLeaf(v))
					removed = append(removed, node{i, v})
				}
			case op == 19 && len(removed) > 0:
				k := rng.Intn(len(removed))
				h, v := s.Attr(removed[k].col).Domain, removed[k].name
				nodes := h.Nodes()
				parent := nodes[rng.Intn(len(nodes))]
				what = fmt.Sprintf("AddClass(%s, %s)", v, parent)
				must(t, h.AddClass(v, parent))
				removed = slices.Delete(removed, k, k+1)
				reference = true
			default:
				m := Preemption(rng.Intn(3))
				what = fmt.Sprintf("SetMode(%v)", m)
				r.SetMode(m)
			}
			label := fmt.Sprintf("seed %d step %d after %s", seed, step, what)
			checkRowsMatchModel(t, label, r, model, randomItem)
			if reference {
				compareWithReferences(t, label, r, s.Names()[:1])
			}
		}
		if aside != nil {
			checkRowsMatchModel(t, fmt.Sprintf("seed %d: the clone set aside", seed), aside, asideModel, randomItem)
		}
	}
}

// validateItemErr is validateItem's error alone.
func (r *Relation) validateItemErr(item Item) error {
	_, err := r.validateItem(item, nil)
	return err
}

// checkRowsMatchModel holds every read of r's store to a scan of model.
func checkRowsMatchModel(t *testing.T, label string, r *Relation, model nameModel, randomItem func() Item) {
	t.Helper()
	want := model.sorted()
	if r.Len() != len(want) {
		t.Fatalf("%s: Len %d, model %d", label, r.Len(), len(want))
	}
	if got := r.Tuples(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Tuples\n got %v\nwant %v", label, got, want)
	}
	if got, ref := r.TuplesGeneralFirst(), refSortGeneralFirst(r, want); len(got)+len(ref) > 0 && !reflect.DeepEqual(got, ref) {
		t.Fatalf("%s: TuplesGeneralFirst\n got %v\nwant %v", label, got, ref)
	}
	probes := []Item{}
	for _, tu := range want {
		probes = append(probes, tu.Item)
	}
	for i := 0; i < 8; i++ {
		probes = append(probes, randomItem())
	}
	for _, p := range probes {
		got, ok := r.Lookup(p)
		if w, in := model[p.Key()]; ok != in || ok && !reflect.DeepEqual(got, w) {
			t.Fatalf("%s: Lookup(%v) = %v, %v; model %v, %v", label, p, got, ok, w, in)
		}
		if got, ref := r.Applicable(p), r.applicableByScan(p); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%s: Applicable(%v)\n got %v\nscan %v", label, p, got, ref)
		}
		var overlapping []Tuple
		if r.validateItemErr(p) != nil {
			overlapping = want
		} else {
			for _, tu := range want {
				if r.Overlapping(tu.Item, p) {
					overlapping = append(overlapping, tu)
				}
			}
		}
		if got := r.TuplesOverlapping([]Item{p}); !reflect.DeepEqual(got, overlapping) {
			t.Fatalf("%s: TuplesOverlapping(%v)\n got %v\nscan %v", label, p, got, overlapping)
		}
	}
	s := r.Schema()
	stats := r.Stats()
	for i := 0; i < s.Arity(); i++ {
		h := s.Attr(i).Domain
		counts := map[string]int{}
		for _, tu := range want {
			counts[tu.Item[i]]++
		}
		if r.DistinctValues(i) != len(counts) {
			t.Fatalf("%s: DistinctValues(%d) = %d, model %d", label, i, r.DistinctValues(i), len(counts))
		}
		if w := (IndexStats{Attr: s.Attr(i).Name, Distinct: len(counts), Tuples: len(want), Warm: h.IndexWarm()}); stats[i] != w {
			t.Fatalf("%s: Stats()[%d] = %+v, model %+v", label, i, stats[i], w)
		}
		for _, v := range append(h.Nodes(), "nope") {
			if got := r.PostingCount(i, v); got != counts[v] {
				t.Fatalf("%s: PostingCount(%d, %q) = %d, model %d", label, i, v, got, counts[v])
			}
			var scan []Tuple
			for _, tu := range want {
				if h.Overlaps(tu.Item[i], v) {
					scan = append(scan, tu)
				}
			}
			if got := r.OverlapCandidates(i, v); !reflect.DeepEqual(got, scan) {
				t.Fatalf("%s: OverlapCandidates(%d, %q)\n got %v\nscan %v", label, i, v, got, scan)
			}
		}
	}
}

// TestRowsFollowAReAddedName removes a leaf that a relation, its clone and
// its explication name, and adds a node of that name again: each then reads
// exactly as a relation built from its tuples' names on the hierarchy as it
// now is, and an insert, lookup or retraction of the name meets the one
// tuple stored on it.
func TestRowsFollowAReAddedName(t *testing.T) {
	animals, colors := animalHierarchy(t), colorHierarchy(t)
	must(t, animals.AddInstance("Dodo", "Bird"))
	s := MustSchema(Attribute{Name: "Animal", Domain: animals}, Attribute{Name: "Color", Domain: colors})
	r := NewRelation("R", s)
	must(t, r.Assert("Bird", "Grey"))
	must(t, r.Deny("Penguin", "Grey"))
	must(t, r.Assert("Dodo", "Grey"))
	must(t, r.Deny("Dodo", "White"))
	must(t, r.Assert("Tweety", "White"))
	flat, err := r.Explicate("Animal")
	must(t, err)
	aside := r.Clone()
	must(t, animals.RemoveLeaf("Dodo"))
	if _, ok := r.Lookup(Item{"Dodo", "Grey"}); !ok || r.Len() != 5 {
		t.Fatalf("a removed name's tuple is gone: Len %d", r.Len())
	}
	if _, err := r.Evaluate(Item{"Dodo", "Grey"}); !errors.Is(err, ErrUnknownValue) {
		t.Fatalf("Evaluate of a removed name = %v, want ErrUnknownValue", err)
	}
	must(t, animals.AddClass("Dodo", "Bird"))
	must(t, animals.AddInstance("dodo1", "Dodo"))
	for _, rel := range []*Relation{r, aside, flat} {
		fresh := NewRelation(rel.Name(), s)
		for _, tu := range rel.Tuples() {
			must(t, fresh.Insert(tu.Item, tu.Sign))
		}
		if got, want := rel.Table(), fresh.Table(); got != want {
			t.Fatalf("Table\n%s\nwant\n%s", got, want)
		}
		for _, v := range animals.Nodes() {
			for _, c := range colors.Nodes() {
				it := Item{v, c}
				got, gerr := rel.Evaluate(it)
				want, werr := fresh.Evaluate(it)
				sameResult(t, fmt.Sprintf("Evaluate(%v)", it), got, want, gerr, werr)
				if got, want := rel.TuplesOverlapping([]Item{it}), fresh.TuplesOverlapping([]Item{it}); !reflect.DeepEqual(got, want) {
					t.Fatalf("TuplesOverlapping(%v)\n got %v\nwant %v", it, got, want)
				}
			}
			if got, want := rel.PostingCount(0, v), fresh.PostingCount(0, v); got != want {
				t.Fatalf("PostingCount(0, %q) = %d, want %d", v, got, want)
			}
		}
		got, gerr := rel.Explicate()
		want, werr := fresh.Explicate()
		sameResult(t, "Explicate", tuplesOf(got), tuplesOf(want), gerr, werr)
		if got, want := rel.Conflicts(), fresh.Conflicts(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Conflicts\n got %v\nwant %v", got, want)
		}
		if got, want := rel.Consolidate().Tuples(), fresh.Consolidate().Tuples(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Consolidate\n got %v\nwant %v", got, want)
		}
	}
	n := r.Len()
	must(t, r.Assert("Dodo", "Grey"))
	if err := r.Assert("Dodo", "White"); !errors.Is(err, ErrContradiction) {
		t.Fatalf("asserting a denied re-added item = %v, want ErrContradiction", err)
	}
	if r.Len() != n {
		t.Fatalf("re-asserting a stored tuple grew the relation to %d from %d", r.Len(), n)
	}
	if !r.Retract(Item{"Dodo", "Grey"}) {
		t.Fatal("Retract missed the re-added name's tuple")
	}
	if _, ok := r.Lookup(Item{"Dodo", "Grey"}); ok || r.Len() != n-1 {
		t.Fatalf("after Retract: Len %d, Tuples %v", r.Len(), r.Tuples())
	}
}

// TestRebindUnderConcurrentReads: the first reads after a removed name
// comes back run together; run under -race, none of them writes the rows
// (the name has its old id back, so no row is rekeyed), and each reads the
// rows as they are now.
func TestRebindUnderConcurrentReads(t *testing.T) {
	animals := animalHierarchy(t)
	must(t, animals.AddInstance("Dodo", "Bird"))
	r := NewRelation("R", MustSchema(Attribute{Name: "Animal", Domain: animals}))
	must(t, r.Assert("Bird"))
	must(t, r.Deny("Dodo"))
	must(t, animals.RemoveLeaf("Dodo"))
	r.Len() // the removal is seen
	must(t, animals.AddInstance("Dodo", "Bird"))
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var ok bool
			switch g {
			case 0:
				v, err := r.Holds("Dodo")
				ok = err == nil && !v
			case 1:
				ok = len(r.Applicable(Item{"Dodo"})) == 2
			case 2:
				ok = r.PostingCount(0, "Dodo") == 1
			default:
				_, ok = r.Lookup(Item{"Dodo"})
			}
			if !ok {
				errs <- fmt.Errorf("reader %d read the rows as they were before the name came back", g)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRelationHeapPerTuple bounds the heap a stored tuple costs: an arity-2
// relation of 3,000 tuples over the depth-5 ternary class tree (364
// classes), four copies built by Insert.
func TestRelationHeapPerTuple(t *testing.T) {
	h := hierarchy.New("C")
	level := []string{"C"}
	for depth := 1; depth <= 5; depth++ {
		var next []string
		for _, p := range level {
			for k := 0; k < 3; k++ {
				c := fmt.Sprintf("%s.%d", p, k)
				must(t, h.AddClass(c, p))
				next = append(next, c)
			}
		}
		level = next
	}
	s := MustSchema(Attribute{Name: "A", Domain: h}, Attribute{Name: "B", Domain: h})
	nodes := h.Nodes()
	rng := rand.New(rand.NewSource(47))
	const tuples, copies = 3000, 4
	var items []Item
	seen := map[string]bool{}
	for len(items) < tuples {
		it := Item{nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]}
		if !seen[it.Key()] {
			seen[it.Key()] = true
			items = append(items, it)
		}
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	rels := make([]*Relation, copies)
	before := heap()
	for c := range rels {
		rels[c] = NewRelation("R", s)
		for i, it := range items {
			must(t, rels[c].Insert(slices.Clone(it), i%3 > 0))
		}
	}
	after := heap()
	runtime.KeepAlive(rels)
	perTuple := float64(int64(after)-int64(before)) / float64(copies*tuples)
	t.Logf("%d tuples hold %.1f heap bytes each", copies*tuples, perTuple)
	if perTuple > maxHeapPerTuple {
		t.Fatalf("%d tuples hold %.1f heap bytes each, want at most %d", copies*tuples, perTuple, maxHeapPerTuple)
	}
}

// maxHeapPerTuple is TestRelationHeapPerTuple's bound: what the fixture's
// tuples measure, 79.7 bytes on amd64, plus 10%.
const maxHeapPerTuple = 88
