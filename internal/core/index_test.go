package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hrdb/internal/hierarchy"
)

// twoAttrRelation builds a relation over two small hierarchies with a mix
// of class- and instance-level tuples.
func twoAttrRelation(t *testing.T) *Relation {
	t.Helper()
	hx := hierarchy.New("X")
	hy := hierarchy.New("Y")
	for c := 0; c < 4; c++ {
		if err := hx.AddClass(fmt.Sprintf("xc%d", c)); err != nil {
			t.Fatal(err)
		}
		if err := hy.AddClass(fmt.Sprintf("yc%d", c)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := hx.AddInstance(fmt.Sprintf("xc%d_i%d", c, i), fmt.Sprintf("xc%d", c)); err != nil {
				t.Fatal(err)
			}
			if err := hy.AddInstance(fmt.Sprintf("yc%d_i%d", c, i), fmt.Sprintf("yc%d", c)); err != nil {
				t.Fatal(err)
			}
		}
	}
	r := NewRelation("r", MustSchema(
		Attribute{Name: "A", Domain: hx},
		Attribute{Name: "B", Domain: hy},
	))
	return r
}

func TestSecondaryIndexMaintenance(t *testing.T) {
	r := twoAttrRelation(t)
	if err := r.Assert("xc0", "yc1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Assert("xc0", "yc2"); err != nil {
		t.Fatal(err)
	}
	if err := r.Deny("xc0_i1", "yc1_i0"); err != nil {
		t.Fatal(err)
	}
	if got := r.DistinctValues(0); got != 2 { // xc0, xc0_i1
		t.Fatalf("DistinctValues(0) = %d, want 2", got)
	}
	if got := r.DistinctValues(1); got != 3 { // yc1, yc2, yc1_i0
		t.Fatalf("DistinctValues(1) = %d, want 3", got)
	}
	if got := r.PostingCount(0, "xc0"); got != 2 {
		t.Fatalf("PostingCount(0, xc0) = %d, want 2", got)
	}
	if got := r.PostingCount(1, "yc2"); got != 1 {
		t.Fatalf("PostingCount(1, yc2) = %d, want 1", got)
	}
	if got := r.PostingCount(1, "nope"); got != 0 {
		t.Fatalf("PostingCount of absent value = %d, want 0", got)
	}
	// Retract drains the posting lists of every column.
	if !r.Retract(Item{"xc0", "yc2"}) {
		t.Fatal("Retract failed")
	}
	if got := r.PostingCount(0, "xc0"); got != 1 {
		t.Fatalf("after retract: PostingCount(0, xc0) = %d, want 1", got)
	}
	if got := r.DistinctValues(1); got != 2 {
		t.Fatalf("after retract: DistinctValues(1) = %d, want 2", got)
	}
	// Out-of-range columns are a harmless zero, not a panic.
	if r.DistinctValues(-1) != 0 || r.DistinctValues(9) != 0 || r.PostingCount(9, "x") != 0 {
		t.Fatal("out-of-range column not tolerated")
	}
	// Clone rebuilds the same index.
	c := r.Clone()
	if got, want := c.DistinctValues(0), r.DistinctValues(0); got != want {
		t.Fatalf("clone DistinctValues(0) = %d, want %d", got, want)
	}
	if got, want := c.PostingCount(1, "yc1"), r.PostingCount(1, "yc1"); got != want {
		t.Fatalf("clone PostingCount = %d, want %d", got, want)
	}
}

func TestOverlapCandidatesMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := MustSchema(
		Attribute{Name: "A", Domain: randomHierarchy(rng, "DA", 25)},
		Attribute{Name: "B", Domain: randomHierarchy(rng, "DB", 15)},
	)
	r := randomConsistentRelation(rng, "r", s, 40)
	for attr := 0; attr < r.Schema().Arity(); attr++ {
		h := r.Schema().Attr(attr).Domain
		for _, class := range h.Nodes() {
			var want []Tuple
			for _, tp := range r.Tuples() {
				if h.Overlaps(tp.Item[attr], class) {
					want = append(want, tp)
				}
			}
			got := r.OverlapCandidates(attr, class)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("OverlapCandidates(%d, %q): got %d tuples, scan found %d",
					attr, class, len(got), len(want))
			}
		}
	}
	if got := r.OverlapCandidates(0, "no-such-class"); got != nil {
		t.Fatalf("unknown class: got %v, want nil", got)
	}
	if got := r.OverlapCandidates(-1, "x"); got != nil {
		t.Fatalf("bad column: got %v, want nil", got)
	}
}

func TestStatsReflectWarmth(t *testing.T) {
	r := twoAttrRelation(t)
	if err := r.Assert("xc0", "yc0"); err != nil {
		t.Fatal(err)
	}
	stats := r.Stats()
	if len(stats) != 2 {
		t.Fatalf("Stats arity = %d, want 2", len(stats))
	}
	if stats[0].Attr != "A" || stats[0].Tuples != 1 || stats[0].Distinct != 1 {
		t.Fatalf("stats[0] = %+v", stats[0])
	}
	if stats[0].Warm {
		t.Fatal("fresh hierarchy reported warm")
	}
	r.Schema().Attr(0).Domain.Warm()
	if !r.Stats()[0].Warm {
		t.Fatal("warmed hierarchy reported cold")
	}
}

// TestApplicableChoosesCheapestColumn pins the multi-attribute probe: when
// one column's buckets are much smaller, results still match the reference
// scan exactly.
func TestApplicableChoosesCheapestColumn(t *testing.T) {
	r := twoAttrRelation(t)
	// Column A is all the same value (one fat bucket); column B spreads.
	for c := 0; c < 4; c++ {
		if err := r.Assert("xc0", fmt.Sprintf("yc%d", c)); err != nil {
			t.Fatal(err)
		}
	}
	for _, probe := range []Item{
		{"xc0_i0", "yc1_i2"},
		{"xc0", "yc1"},
		{"xc3_i1", "yc0_i0"},
	} {
		got := r.Applicable(probe)
		want := r.applicableByScan(probe)
		if len(got) != len(want) {
			t.Fatalf("Applicable(%v) = %d tuples, scan = %d", probe, len(got), len(want))
		}
		for i := range got {
			if !got[i].Item.Equal(want[i].Item) || got[i].Sign != want[i].Sign {
				t.Fatalf("Applicable(%v)[%d] = %v, want %v", probe, i, got[i], want[i])
			}
		}
	}
}

// applicableByScan is the index-free reference implementation of
// Applicable, kept for tests and the ablation benchmark.
func (r *Relation) applicableByScan(item Item) []Tuple {
	var out []Tuple
	for _, t := range r.Tuples() {
		if r.Subsumes(t.Item, item) {
			out = append(out, t)
		}
	}
	return out
}

// TestApplicableWarmAllocatesOnlyItsResult pins the id-level probe: on a warm
// hierarchy the ancestor ids come from the per-node memo, so Applicable's one
// allocation is the result slice — for Patricia, under two parents.
func TestApplicableWarmAllocatesOnlyItsResult(t *testing.T) {
	r := fliesRelation(t)
	r.Schema().Attr(0).Domain.Warm()
	item := Item{"Patricia"}
	if got, want := len(r.Applicable(item)), len(r.applicableByScan(item)); got != want || got != 3 {
		t.Fatalf("Applicable(Patricia) = %d tuples, scan %d, want 3", got, want)
	}
	if avg := testing.AllocsPerRun(200, func() { r.Applicable(item) }); avg != 1 {
		t.Fatalf("warm Applicable allocates %.1f per run, want 1", avg)
	}
}
