package algebra

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"hrdb/internal/core"
)

// sizableRelation builds a relation big enough for the planner to consider
// index probes, over warm two-attribute schemas.
func sizableRelation(t *testing.T, seed int64, tuples int) *core.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := core.MustSchema(
		core.Attribute{Name: "A", Domain: randomHierarchy(rng, "DA", 30)},
		core.Attribute{Name: "B", Domain: randomHierarchy(rng, "DB", 20)},
	)
	return randomConsistentRelation(rng, "r", s, tuples)
}

func TestPlanSelectAccessChoice(t *testing.T) {
	r := sizableRelation(t, 7, 40)
	s := r.Schema()
	s.Attr(0).Domain.Warm()

	// Unconditioned select: nothing narrows a column, scan is forced.
	p, err := PlanSelect(r)
	must(t, err)
	if p.Access != FullScan || !strings.Contains(p.Note, "no condition") {
		t.Fatalf("unconditioned plan = %+v", p)
	}

	// A narrow condition on a sizable relation should probe the index.
	nodes := s.Attr(0).Domain.Nodes()
	var probed bool
	for _, class := range nodes {
		if class == s.Attr(0).Domain.Domain() {
			continue
		}
		p, err := PlanSelect(r, Condition{Attr: "A", Class: class})
		must(t, err)
		if p.Access == IndexProbe {
			probed = true
			if p.Attr != "A" || p.Class != class {
				t.Fatalf("probe plan = %+v", p)
			}
			if !p.Warm {
				t.Fatalf("warmed domain planned cold: %+v", p)
			}
			if p.Cost >= p.ScanCost {
				t.Fatalf("index plan not cheaper than scan: %+v", p)
			}
			break
		}
	}
	if !probed {
		t.Fatal("no condition produced an index-probe plan on a sizable relation")
	}

	// Below the size threshold the planner refuses to probe.
	small := sizableRelation(t, 8, minIndexLen-2)
	p, err = PlanSelect(small, Condition{Attr: "A", Class: small.Schema().Attr(0).Domain.Nodes()[1]})
	must(t, err)
	if p.Access != FullScan || !strings.Contains(p.Note, "below index threshold") {
		t.Fatalf("small-relation plan = %+v", p)
	}

	// Bad attribute and bad class surface the usual errors.
	if _, err := PlanSelect(r, Condition{Attr: "Nope", Class: "x"}); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	if _, err := PlanSelect(r, Condition{Attr: "A", Class: "no-such"}); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestPlanStringRendering(t *testing.T) {
	p := &Plan{
		Op: "select", Relation: "r", Access: IndexProbe, Attr: "A",
		Class: "c", EstRows: 5, Cost: 12.5, ScanCost: 80, Warm: true,
	}
	s := p.String()
	for _, want := range []string{"select r: index-probe on A under c", "est candidates: 5", "cost: 12.5", "full scan: 80.0", "label index: warm"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
	p.Warm = false
	if !strings.Contains(p.String(), "label index: cold") {
		t.Fatalf("cold plan rendering = %q", p.String())
	}
	q := &Plan{Op: "join", Relation: "b", Outer: "a", Access: FullScan, Note: "no shared attributes: cross product"}
	s = q.String()
	for _, want := range []string{"join b: full-scan (outer: a)", "note: no shared"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
}

// TestSelectPlannerMatchesForceScan is the equivalence property: for random
// relations and random conditions, the planner-chosen access path must give
// byte-identical results to the forced full scan, and at least some trials
// must actually exercise the index path.
func TestSelectPlannerMatchesForceScan(t *testing.T) {
	ctx := context.Background()
	probes := 0
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		r := sizableRelation(t, int64(200+trial), 30+rng.Intn(30))
		s := r.Schema()
		if trial%2 == 0 {
			s.Attr(0).Domain.Warm()
			s.Attr(1).Domain.Warm()
		}
		for q := 0; q < 12; q++ {
			var conds []Condition
			for i := 0; i < s.Arity(); i++ {
				if rng.Intn(2) == 0 {
					nodes := s.Attr(i).Domain.Nodes()
					conds = append(conds, Condition{Attr: s.Attr(i).Name, Class: nodes[rng.Intn(len(nodes))]})
				}
			}
			plan, err := PlanSelect(r, conds...)
			if err != nil {
				continue // incompatible condition pair; both paths reject identically below
			}
			if plan.Access == IndexProbe {
				probes++
			}
			got, gerr := SelectContext(ctx, "σ", r, conds...)
			want, werr := SelectContext(WithForceScan(ctx), "σ", r, conds...)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("trial %d: planner err %v, scan err %v (conds %v)", trial, gerr, werr, conds)
			}
			if gerr != nil {
				continue
			}
			if g, w := got.Table(), want.Table(); g != w {
				t.Fatalf("trial %d conds %v plan %s:\nplanner:\n%s\nscan:\n%s", trial, conds, plan.Access, g, w)
			}
			if got.Consolidate().Table() != want.Consolidate().Table() {
				t.Fatalf("trial %d conds %v: consolidated results differ", trial, conds)
			}
		}
	}
	if probes == 0 {
		t.Fatal("equivalence test never exercised an index-probe plan")
	}
}

// TestJoinPlannerMatchesForceScan: joins over a shared attribute must give
// byte-identical results whether pairs come from the probe or the cross
// product.
func TestJoinPlannerMatchesForceScan(t *testing.T) {
	ctx := context.Background()
	probes := 0
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		shared := randomHierarchy(rng, "DS", 24)
		ha := randomHierarchy(rng, "DA", 12)
		hb := randomHierarchy(rng, "DB", 12)
		sa := core.MustSchema(
			core.Attribute{Name: "S", Domain: shared},
			core.Attribute{Name: "L", Domain: ha},
		)
		sb := core.MustSchema(
			core.Attribute{Name: "S", Domain: shared},
			core.Attribute{Name: "R", Domain: hb},
		)
		a := randomConsistentRelation(rng, "a", sa, 8+rng.Intn(10))
		b := randomConsistentRelation(rng, "b", sb, 16+rng.Intn(16))
		if trial%2 == 1 {
			shared.Warm()
		}
		plan, err := PlanJoin(a, b)
		must(t, err)
		if plan.Access == IndexProbe {
			probes++
		}
		got, err := JoinContext(ctx, "j", a, b)
		must(t, err)
		want, err := JoinContext(WithForceScan(ctx), "j", a, b)
		must(t, err)
		if g, w := got.Table(), want.Table(); g != w {
			t.Fatalf("trial %d plan %s:\nplanner:\n%s\nscan:\n%s", trial, plan.Access, g, w)
		}
	}
	if probes == 0 {
		t.Fatal("join equivalence test never exercised an index-probe plan")
	}
}

func TestPlanJoinShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shared := randomHierarchy(rng, "DS", 20)
	sa := core.MustSchema(core.Attribute{Name: "S", Domain: shared})
	sb := core.MustSchema(core.Attribute{Name: "S", Domain: shared})
	small := randomConsistentRelation(rng, "small", sa, 3)
	big := randomConsistentRelation(rng, "big", sb, 20)

	// The smaller side becomes the outer, the bigger side is probed.
	p, err := PlanJoin(small, big)
	must(t, err)
	if p.Access != IndexProbe || p.Outer != "small" || p.Relation != "big" {
		t.Fatalf("plan = %+v", p)
	}
	// Same answer with the arguments flipped.
	p, err = PlanJoin(big, small)
	must(t, err)
	if p.Access != IndexProbe || p.Outer != "small" || p.Relation != "big" {
		t.Fatalf("flipped plan = %+v", p)
	}

	// Inner below threshold: scan.
	tiny := randomConsistentRelation(rng, "tiny", sb, 2)
	p, err = PlanJoin(small, tiny)
	must(t, err)
	if p.Access != FullScan || !strings.Contains(p.Note, "below index threshold") {
		t.Fatalf("tiny-inner plan = %+v", p)
	}

	// No shared attributes: cross product.
	other := core.MustSchema(core.Attribute{Name: "T", Domain: randomHierarchy(rng, "DT", 5)})
	o := randomConsistentRelation(rng, "o", other, 10)
	p, err = PlanJoin(big, o)
	must(t, err)
	if p.Access != FullScan || !strings.Contains(p.Note, "cross product") {
		t.Fatalf("disjoint-schema plan = %+v", p)
	}
}

func TestPlanBinOp(t *testing.T) {
	r := respects(t)
	p, err := PlanBinOp("union", r, r)
	must(t, err)
	if p.Op != "union" || p.Access != FullScan || !strings.Contains(p.Note, "set operation") {
		t.Fatalf("union plan = %+v", p)
	}
	if want := r.Len() + r.Len() + r.Len()*r.Len(); p.EstRows != want {
		t.Fatalf("union EstRows = %d, want %d", p.EstRows, want)
	}
	// join delegates to PlanJoin.
	p, err = PlanBinOp("join", r, r)
	must(t, err)
	if p.Op != "join" {
		t.Fatalf("join plan op = %q", p.Op)
	}
	// Incompatible schemas are rejected.
	rng := rand.New(rand.NewSource(1))
	other := randomConsistentRelation(rng, "o",
		core.MustSchema(core.Attribute{Name: "Z", Domain: randomHierarchy(rng, "DZ", 4)}), 3)
	if _, err := PlanBinOp("intersect", r, other); err == nil {
		t.Fatal("incompatible set operation accepted")
	}
}

// TestSelectProbeSkipsNonOverlapping pins that the probe path enumerates
// strictly fewer raw candidates on a selective condition but loses nothing:
// the kept extension matches the scan's.
func TestSelectProbeSkipsNonOverlapping(t *testing.T) {
	r := sizableRelation(t, 99, 50)
	s := r.Schema()
	s.Attr(0).Domain.Warm()
	leaves := s.Attr(0).Domain.Nodes()
	class := leaves[len(leaves)-1]
	plan, err := PlanSelect(r, Condition{Attr: "A", Class: class})
	must(t, err)
	got, err := Select("σ", r, Condition{Attr: "A", Class: class})
	must(t, err)
	want, err := SelectContext(WithForceScan(context.Background()), "σ", r, Condition{Attr: "A", Class: class})
	must(t, err)
	ge, err := got.Extension()
	must(t, err)
	we, err := want.Extension()
	must(t, err)
	if !reflect.DeepEqual(ge, we) {
		t.Fatalf("plan %v: extensions differ:\n%v\n%v", plan.Access, ge, we)
	}
}

func TestWithForceScanRoundTrip(t *testing.T) {
	ctx := context.Background()
	if scanForced(ctx) {
		t.Fatal("fresh context reports forced scan")
	}
	if !scanForced(WithForceScan(ctx)) {
		t.Fatal("WithForceScan not visible")
	}
}

// sanity: the helpers really build relations big enough to plan over.
func TestSizableRelationHelper(t *testing.T) {
	r := sizableRelation(t, 1, 30)
	if r.Len() < minIndexLen {
		t.Fatalf("helper built only %d tuples", r.Len())
	}
	if fmt.Sprintf("%v", r.Schema().Names()) != "[A B]" {
		t.Fatalf("schema = %v", r.Schema().Names())
	}
}

// TestPlanSelectWarmAllocatesOnlyThePlan pins planning from counts: on a warm
// two-parent hierarchy planSelect reads the reach-set popcount and the
// memoized ancestor list, so its one allocation is the *Plan.
func TestPlanSelectWarmAllocatesOnlyThePlan(t *testing.T) {
	h := animalHierarchy(t)
	r := core.NewRelation("Flies", core.MustSchema(core.Attribute{Name: "Creature", Domain: h}))
	for _, n := range h.Nodes() {
		if n != h.Domain() {
			must(t, r.Assert(n))
		}
	}
	h.Warm()
	region := core.Item{"Patricia"}
	if p := planSelect(r, region); p.Access != IndexProbe || p.EstRows != 6 {
		t.Fatalf("plan = %+v, want an index probe estimating 6 rows", p)
	}
	if avg := testing.AllocsPerRun(200, func() { planSelect(r, region) }); avg != 1 {
		t.Fatalf("warm planSelect allocates %.1f per run, want 1", avg)
	}
}
