// Benchmarks regenerating the paper's figures (F1–F11) and the performance
// experiments (E1–E7) of EXPERIMENTS.md via testing.B. The hrbench command
// prints the same experiments as human-readable tables.
package hrdb

import (
	"context"
	"fmt"
	"testing"

	"hrdb/internal/algebra"
	"hrdb/internal/core"
	"hrdb/internal/mining"
	"hrdb/internal/workload"
)

// ---- figure fixtures -------------------------------------------------------

func benchAnimals(b *testing.B) *Hierarchy {
	b.Helper()
	h := NewHierarchy("Animal")
	steps := []error{
		h.AddClass("Bird"),
		h.AddClass("Canary", "Bird"),
		h.AddInstance("Tweety", "Canary"),
		h.AddClass("Penguin", "Bird"),
		h.AddClass("GalapagosPenguin", "Penguin"),
		h.AddClass("AmazingFlyingPenguin", "Penguin"),
		h.AddInstance("Paul", "GalapagosPenguin"),
		h.AddInstance("Patricia", "GalapagosPenguin", "AmazingFlyingPenguin"),
		h.AddInstance("Pamela", "AmazingFlyingPenguin"),
		h.AddInstance("Peter", "AmazingFlyingPenguin"),
	}
	for _, err := range steps {
		if err != nil {
			b.Fatal(err)
		}
	}
	return h
}

func benchFlies(b *testing.B) *Relation {
	b.Helper()
	h := benchAnimals(b)
	r := NewRelation("Flies", MustSchema(Attribute{Name: "Creature", Domain: h}))
	for _, err := range []error{
		r.Assert("Bird"), r.Deny("Penguin"), r.Assert("AmazingFlyingPenguin"), r.Assert("Peter"),
	} {
		if err != nil {
			b.Fatal(err)
		}
	}
	return r
}

func benchRespects(b *testing.B) *Relation {
	b.Helper()
	s := NewHierarchy("Student")
	te := NewHierarchy("Teacher")
	for _, err := range []error{
		s.AddClass("ObsequiousStudent"),
		s.AddInstance("John", "ObsequiousStudent"),
		te.AddClass("IncoherentTeacher"),
		te.AddInstance("Fagin", "IncoherentTeacher"),
	} {
		if err != nil {
			b.Fatal(err)
		}
	}
	r := NewRelation("Respects", MustSchema(
		Attribute{Name: "Student", Domain: s},
		Attribute{Name: "Teacher", Domain: te},
	))
	for _, err := range []error{
		r.Assert("ObsequiousStudent", "Teacher"),
		r.Deny("Student", "IncoherentTeacher"),
		r.Assert("ObsequiousStudent", "IncoherentTeacher"),
	} {
		if err != nil {
			b.Fatal(err)
		}
	}
	return r
}

func benchElephants(b *testing.B) (*Hierarchy, *Relation, *Relation) {
	b.Helper()
	h := NewHierarchy("Animal")
	colors := NewHierarchy("Color")
	sizes := NewHierarchy("EnclosureSize")
	for _, err := range []error{
		h.AddClass("Elephant"),
		h.AddClass("RoyalElephant", "Elephant"),
		h.AddClass("IndianElephant", "Elephant"),
		h.AddInstance("Clyde", "RoyalElephant"),
		h.AddInstance("Appu", "RoyalElephant", "IndianElephant"),
		colors.AddInstance("Grey"), colors.AddInstance("White"), colors.AddInstance("Dappled"),
		sizes.AddInstance("3000"), sizes.AddInstance("2000"),
	} {
		if err != nil {
			b.Fatal(err)
		}
	}
	color := NewRelation("AnimalColor", MustSchema(
		Attribute{Name: "Animal", Domain: h}, Attribute{Name: "Color", Domain: colors}))
	size := NewRelation("Enclosure", MustSchema(
		Attribute{Name: "Animal", Domain: h}, Attribute{Name: "EnclosureSize", Domain: sizes}))
	for _, err := range []error{
		color.Assert("Elephant", "Grey"), color.Deny("RoyalElephant", "Grey"),
		color.Assert("RoyalElephant", "White"), color.Deny("Clyde", "White"),
		color.Assert("Clyde", "Dappled"),
		size.Assert("Elephant", "3000"), size.Deny("IndianElephant", "3000"),
		size.Assert("IndianElephant", "2000"),
	} {
		if err != nil {
			b.Fatal(err)
		}
	}
	return h, color, size
}

// ---- F benchmarks: one per paper figure -----------------------------------

// BenchmarkFig1Eval evaluates the five Figure 1 answers (inheritance with
// exceptions and exceptions to exceptions).
func BenchmarkFig1Eval(b *testing.B) {
	r := benchFlies(b)
	who := []Item{{"Tweety"}, {"Paul"}, {"Pamela"}, {"Patricia"}, {"Peter"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range who {
			if _, err := r.Evaluate(w); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig1BindingGraph constructs Patricia's tuple-binding graph.
func BenchmarkFig1BindingGraph(b *testing.B) {
	r := benchFlies(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.TupleBindingGraph(Item{"Patricia"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2ProductEval evaluates in the two-attribute product hierarchy.
func BenchmarkFig2ProductEval(b *testing.B) {
	r := benchRespects(b)
	for i := 0; i < b.N; i++ {
		if _, err := r.Evaluate(Item{"John", "Fagin"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3ConsistencyCheck runs the ambiguity-constraint checker on the
// resolved Respects relation.
func BenchmarkFig3ConsistencyCheck(b *testing.B) {
	r := benchRespects(b)
	for i := 0; i < b.N; i++ {
		if err := r.CheckConsistency(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4AppuQuery answers the Appu color query.
func BenchmarkFig4AppuQuery(b *testing.B) {
	_, color, _ := benchElephants(b)
	for i := 0; i < b.N; i++ {
		if _, err := color.Evaluate(Item{"Appu", "White"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5RedundancyCheck detects that C's tuple is not redundant.
func BenchmarkFig5RedundancyCheck(b *testing.B) {
	h := NewHierarchy("D")
	for _, err := range []error{
		h.AddClass("A"), h.AddClass("B"), h.AddClass("C"),
		h.AddInstance("c1", "A", "C"), h.AddInstance("c2", "B", "C"),
	} {
		if err != nil {
			b.Fatal(err)
		}
	}
	r := NewRelation("R", MustSchema(Attribute{Name: "X", Domain: h}))
	for _, err := range []error{r.Assert("A"), r.Assert("B"), r.Assert("C")} {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := r.Consolidate().Len(); got != 3 {
			b.Fatalf("C lost: %d", got)
		}
	}
}

// BenchmarkFig6Consolidate consolidates Respects down to one tuple.
func BenchmarkFig6Consolidate(b *testing.B) {
	r := benchRespects(b)
	for i := 0; i < b.N; i++ {
		if got := r.Consolidate().Len(); got != 1 {
			b.Fatalf("len = %d", got)
		}
	}
}

// BenchmarkFig7Selection runs the obsequious-students selection.
func BenchmarkFig7Selection(b *testing.B) {
	r := benchRespects(b)
	for i := 0; i < b.N; i++ {
		if _, err := Select("σ", r, Condition{Attr: "Student", Class: "ObsequiousStudent"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8InstanceSelection runs the John selection.
func BenchmarkFig8InstanceSelection(b *testing.B) {
	r := benchRespects(b)
	for i := 0; i < b.N; i++ {
		if _, err := Select("σ", r, Condition{Attr: "Student", Class: "John"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Justification evaluates with full justification.
func BenchmarkFig9Justification(b *testing.B) {
	_, color, _ := benchElephants(b)
	for i := 0; i < b.N; i++ {
		v, err := color.Evaluate(Item{"Clyde", "Grey"})
		if err != nil {
			b.Fatal(err)
		}
		if len(v.Applicable) != 2 {
			b.Fatal("justification wrong")
		}
	}
}

// BenchmarkFig10SetOps runs union, intersection and difference of the two
// Loves relations.
func BenchmarkFig10SetOps(b *testing.B) {
	h := benchAnimals(b)
	schema := MustSchema(Attribute{Name: "Creature", Domain: h})
	jack := NewRelation("Jack", schema)
	jill := NewRelation("Jill", schema)
	for _, err := range []error{
		jack.Assert("Bird"), jack.Deny("Penguin"), jack.Assert("Peter"), jill.Assert("Bird"),
	} {
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Union("U", jack, jill); err != nil {
			b.Fatal(err)
		}
		if _, err := Intersect("I", jack, jill); err != nil {
			b.Fatal(err)
		}
		if _, err := Difference("D", jill, jack); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11JoinProject joins enclosure sizes with colors and projects
// back.
func BenchmarkFig11JoinProject(b *testing.B) {
	_, color, size := benchElephants(b)
	for i := 0; i < b.N; i++ {
		j, err := Join("J", size, color)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Project("P", j, "Animal", "Color"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendixOnPath evaluates Patricia under on-path preemption (the
// explicit product-graph elimination path).
func BenchmarkAppendixOnPath(b *testing.B) {
	r := benchFlies(b)
	r.SetMode(OnPath)
	for i := 0; i < b.N; i++ {
		// Pamela: on-path still resolves (every Penguin path passes AFP).
		if _, err := r.Evaluate(Item{"Pamela"}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E benchmarks: the performance experiments ----------------------------

// BenchmarkStorageSweep (E1): building the compact relation vs explicating
// it, at increasing fan-out.
func BenchmarkStorageSweep(b *testing.B) {
	for _, fanout := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			h, err := workload.Taxonomy("D", 10, fanout)
			if err != nil {
				b.Fatal(err)
			}
			r, err := workload.ClassRelation("R", h, 10)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flat, err := r.Explicate()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(flat.Len())/float64(r.Len()), "rows/tuple")
			}
		})
	}
}

// BenchmarkEvalVsMembershipJoin (E2): hierarchical evaluation vs the
// footnote-1 repeated-join baseline, by depth.
func BenchmarkEvalVsMembershipJoin(b *testing.B) {
	for _, depth := range []int{2, 4, 8, 16} {
		h, err := workload.Chain("D", depth, 8)
		if err != nil {
			b.Fatal(err)
		}
		r, err := workload.ExceptionChain("R", h, depth)
		if err != nil {
			b.Fatal(err)
		}
		mb := workload.MembershipBaseline(h, r)
		depthOf := workload.DepthFunc(h)
		item := core.Item{"leafInstance"}
		// Every iteration evaluates the same item: with the verdict cache
		// on, all but the first would time a memo hit, not inheritance.
		r.SetCache(false)

		b.Run(fmt.Sprintf("hier/depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := r.Evaluate(item); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("joins/depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mb.Holds([]string{"X"}, []string{"leafInstance"}, depthOf)
			}
		})
	}
}

// BenchmarkConsolidate (E3): consolidation cost by size.
func BenchmarkConsolidate(b *testing.B) {
	for _, p := range []struct{ classes, redundant int }{{10, 10}, {20, 20}, {40, 40}} {
		b.Run(fmt.Sprintf("tuples=%d", p.classes*(p.redundant+1)), func(b *testing.B) {
			h, err := workload.Taxonomy("D", p.classes, p.redundant+1)
			if err != nil {
				b.Fatal(err)
			}
			r, err := workload.RedundantRelation("R", h, p.classes, p.redundant)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := r.Consolidate().Len(); got != p.classes {
					b.Fatalf("len = %d", got)
				}
			}
		})
	}
}

// BenchmarkExplicate (E4): explication cost by extension size.
func BenchmarkExplicate(b *testing.B) {
	for _, fanout := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("extension=%d", 10*fanout), func(b *testing.B) {
			h, err := workload.Taxonomy("D", 10, fanout)
			if err != nil {
				b.Fatal(err)
			}
			r, err := workload.ClassRelation("R", h, 10)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Explicate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlgebraUnion (E5): union of random consistent relations.
func BenchmarkAlgebraUnion(b *testing.B) {
	for _, tuples := range []int{5, 10, 20} {
		b.Run(fmt.Sprintf("tuples=%d", tuples), func(b *testing.B) {
			a, err := workload.RandomConsistent(int64(tuples), "A", 30, tuples)
			if err != nil {
				b.Fatal(err)
			}
			c := a.Clone()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := algebra.Union("U", a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConsistencyCheck (E6): the pairwise ambiguity checker.
func BenchmarkConsistencyCheck(b *testing.B) {
	for _, p := range []struct{ nodes, tuples int }{{20, 10}, {40, 20}, {80, 40}} {
		b.Run(fmt.Sprintf("tuples=%d", p.tuples), func(b *testing.B) {
			r, err := workload.RandomConsistent(int64(p.nodes), "R", p.nodes, p.tuples)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := r.CheckConsistency(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMining (E7): hierarchy discovery on clustered flat data.
func BenchmarkMining(b *testing.B) {
	for _, p := range []struct{ groups, members, contexts int }{{5, 10, 4}, {10, 20, 5}} {
		rows := p.groups * p.members * p.contexts
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			r := workload.ClusteredFlat("R", p.groups, p.members, p.contexts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := mining.Mine(r, 0)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.CompressionRatio(), "compression")
			}
		})
	}
}

// BenchmarkEvaluateBatch: bulk evaluation of every atomic item of a
// taxonomy relation — the sequential seed path (one worker, cache off)
// against the worker pool and against a warm verdict cache.
func BenchmarkEvaluateBatch(b *testing.B) {
	h, err := workload.Taxonomy("D", 20, 100)
	if err != nil {
		b.Fatal(err)
	}
	r, err := workload.ClassRelation("R", h, 20)
	if err != nil {
		b.Fatal(err)
	}
	atoms, err := r.AtomicItems()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	plain := r.Clone()
	plain.SetCache(false)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plain.EvaluateBatch(ctx, atoms, WithParallelism(1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plain.EvaluateBatch(ctx, atoms); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		if _, err := r.EvaluateBatch(ctx, atoms); err != nil { // warm the cache
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.EvaluateBatch(ctx, atoms); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHoldsCached: repeated point queries with and without the verdict
// cache — the steady-state read path a query workload actually sees.
func BenchmarkHoldsCached(b *testing.B) {
	h, err := workload.Taxonomy("D", 100, 20)
	if err != nil {
		b.Fatal(err)
	}
	r, err := workload.ClassRelation("R", h, 100)
	if err != nil {
		b.Fatal(err)
	}
	const who = "c0050_i00007"
	b.Run("cold", func(b *testing.B) {
		r2 := r.Clone()
		r2.SetCache(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r2.Holds(who); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		if _, err := r.Holds(who); err != nil { // warm
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Holds(who); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLargeScale exercises a 10k-instance taxonomy with 500 class
// tuples: point evaluation, consistency checking and selection at a scale
// a real front end would produce.
func BenchmarkLargeScale(b *testing.B) {
	h, err := workload.Taxonomy("D", 500, 20) // 500 classes × 20 instances
	if err != nil {
		b.Fatal(err)
	}
	r, err := workload.ClassRelation("R", h, 500)
	if err != nil {
		b.Fatal(err)
	}
	item := core.Item{"c0250_i00007"}
	b.Run("eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := r.Evaluate(item); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("consistency", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := r.CheckConsistency(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("select", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Select("σ", r, Condition{Attr: "X", Class: "class0250"}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHQL measures query-language round trips: parse + plan + execute
// for a point query and for a selection. select repeats one SELECT at one
// state, so after the first it is served from the relation's table; select_cold
// writes (untimed) before each one, so each selects, consolidates and
// renders afresh.
func BenchmarkHQL(b *testing.B) {
	sess := NewSession(NewDatabase())
	if _, err := sess.Exec(`
CREATE HIERARCHY Animal;
CLASS Bird UNDER Animal;
CLASS Penguin UNDER Bird;
CLASS AFP UNDER Penguin;
INSTANCE Tweety UNDER Bird;
INSTANCE Paul UNDER Penguin;
INSTANCE Pamela UNDER AFP;
CREATE RELATION Flies (Creature: Animal);
ASSERT Flies (Bird);
DENY Flies (Penguin);
ASSERT Flies (AFP);
`); err != nil {
		b.Fatal(err)
	}
	b.Run("holds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sess.Exec("HOLDS Flies (Pamela);"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("select", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sess.Exec("SELECT FROM Flies WHERE Creature UNDER Penguin;"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("select_cold", func(b *testing.B) {
		writes := []string{"ASSERT Flies (Tweety);", "RETRACT Flies (Tweety);"}
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if _, err := sess.Exec(writes[i%2]); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := sess.Exec("SELECT FROM Flies WHERE Creature UNDER Penguin;"); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if b.N%2 == 1 { // leave Flies as it was for the next case
			if _, err := sess.Exec(writes[1]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("infer", func(b *testing.B) {
		if _, err := sess.Exec("RULE travelsFar(?X) IF Flies(?X);"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Exec("INFER travelsFar(Tweety);"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWALAppend measures the durable write path (fsync per record).
func BenchmarkWALAppend(b *testing.B) {
	dir := b.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	if err := store.CreateHierarchy("D"); err != nil {
		b.Fatal(err)
	}
	if err := store.AddClass("D", "C"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := store.AddInstance("D", fmt.Sprintf("i%04d", i), "C"); err != nil {
			b.Fatal(err)
		}
	}
	if err := store.CreateRelation("R", AttrSpec{Name: "X", Domain: "D"}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		item := fmt.Sprintf("i%04d", i%64)
		if err := store.Assert("R", item); err != nil {
			b.Fatal(err)
		}
		if err := store.Retract("R", item); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecovery measures reopening a store with a populated WAL.
func BenchmarkRecovery(b *testing.B) {
	dir := b.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.CreateHierarchy("D"); err != nil {
		b.Fatal(err)
	}
	if err := store.AddClass("D", "C"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := store.AddInstance("D", fmt.Sprintf("i%04d", i), "C"); err != nil {
			b.Fatal(err)
		}
	}
	if err := store.CreateRelation("R", AttrSpec{Name: "X", Domain: "D"}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := store.Assert("R", fmt.Sprintf("i%04d", i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s2, err := OpenStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		if err := s2.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointAndSnapshotLoad measures snapshotting vs WAL replay.
func BenchmarkCheckpointAndSnapshotLoad(b *testing.B) {
	dir := b.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.CreateHierarchy("D"); err != nil {
		b.Fatal(err)
	}
	if err := store.AddClass("D", "C"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := store.AddInstance("D", fmt.Sprintf("i%04d", i), "C"); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("checkpoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := store.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
	})
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
	b.Run("load", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s2, err := OpenStore(dir)
			if err != nil {
				b.Fatal(err)
			}
			if err := s2.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationIndexVsScan measures the first-attribute tuple index
// against the full scan for Applicable on a wide taxonomy: the index probes
// only the ancestor buckets of the query coordinate.
func BenchmarkAblationIndexVsScan(b *testing.B) {
	h, err := workload.Taxonomy("D", 200, 5)
	if err != nil {
		b.Fatal(err)
	}
	r, err := workload.ClassRelation("R", h, 200)
	if err != nil {
		b.Fatal(err)
	}
	item := core.Item{"c0100_i00002"}
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if got := r.Applicable(item); len(got) != 1 {
				b.Fatalf("applicable = %d", len(got))
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		// Index-free reference: scan every tuple (what Applicable did
		// before the index existed), via the public API.
		tuples := r.Tuples()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			for _, t := range tuples {
				if r.Subsumes(t.Item, item) {
					n++
				}
			}
			if n != 1 {
				b.Fatalf("applicable = %d", n)
			}
		}
	})
}

// BenchmarkAblationFastPathVsElimination compares the two off-path binder
// computations DESIGN.md calls out: the minimal-applicable fast path vs the
// literal product-graph node elimination.
func BenchmarkAblationFastPathVsElimination(b *testing.B) {
	r := benchFlies(b)
	item := core.Item{"Pamela"} // resolves identically under both paths
	b.Run("fastpath", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := r.Evaluate(item); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("elimination", func(b *testing.B) {
		// Force the explicit product-graph construction via on-path mode
		// (off-path and on-path agree at Pamela).
		r2 := r.Clone()
		r2.SetMode(core.OnPath)
		for i := 0; i < b.N; i++ {
			if _, err := r2.Evaluate(item); err != nil {
				b.Fatal(err)
			}
		}
	})
}
