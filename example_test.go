package hrdb_test

import (
	"fmt"

	"hrdb"
)

// ExampleRelation_Holds shows inheritance with exceptions: the paper's
// Figure 1 in six lines.
func ExampleRelation_Holds() {
	animals := hrdb.NewHierarchy("Animal")
	_ = animals.AddClass("Bird")
	_ = animals.AddClass("Penguin", "Bird")
	_ = animals.AddInstance("Tweety", "Bird")
	_ = animals.AddInstance("Paul", "Penguin")

	flies := hrdb.NewRelation("Flies", hrdb.MustSchema(
		hrdb.Attribute{Name: "Creature", Domain: animals}))
	_ = flies.Assert("Bird")
	_ = flies.Deny("Penguin")

	t, _ := flies.Holds("Tweety")
	p, _ := flies.Holds("Paul")
	fmt.Println(t, p)
	// Output: true false
}

// ExampleRelation_Evaluate shows justification: the verdict carries the
// binding and applicable tuples (the paper's Figure 9).
func ExampleRelation_Evaluate() {
	animals := hrdb.NewHierarchy("Animal")
	_ = animals.AddClass("Elephant")
	_ = animals.AddClass("RoyalElephant", "Elephant")
	_ = animals.AddInstance("Clyde", "RoyalElephant")

	colors := hrdb.NewHierarchy("Color")
	_ = colors.AddInstance("Grey")
	_ = colors.AddInstance("White")

	color := hrdb.NewRelation("Color", hrdb.MustSchema(
		hrdb.Attribute{Name: "Animal", Domain: animals},
		hrdb.Attribute{Name: "Color", Domain: colors}))
	_ = color.Assert("Elephant", "Grey")
	_ = color.Deny("RoyalElephant", "Grey")

	v, _ := color.Evaluate(hrdb.Item{"Clyde", "Grey"})
	fmt.Println(v.Value)
	for _, t := range v.Binders {
		fmt.Println("because:", t)
	}
	// Output:
	// false
	// because: - (RoyalElephant, Grey)
}

// ExampleRelation_Consolidate shows the paper's §3.3.1 operator: redundant
// tuples are removed, most general first, without changing the extension.
func ExampleRelation_Consolidate() {
	animals := hrdb.NewHierarchy("Animal")
	_ = animals.AddClass("Bird")
	_ = animals.AddInstance("Tweety", "Bird")

	flies := hrdb.NewRelation("Flies", hrdb.MustSchema(
		hrdb.Attribute{Name: "Creature", Domain: animals}))
	_ = flies.Assert("Bird")
	_ = flies.Assert("Tweety") // redundant: already implied by ∀Bird

	fmt.Println(flies.Len(), flies.Consolidate().Len())
	// Output: 2 1
}

// ExampleRelation_Explicate shows the paper's §3.3.2 operator: the compact
// relation flattens to its atomic extension.
func ExampleRelation_Explicate() {
	animals := hrdb.NewHierarchy("Animal")
	_ = animals.AddClass("Bird")
	_ = animals.AddInstance("Tweety", "Bird")
	_ = animals.AddInstance("Robin", "Bird")

	flies := hrdb.NewRelation("Flies", hrdb.MustSchema(
		hrdb.Attribute{Name: "Creature", Domain: animals}))
	_ = flies.Assert("Bird")

	flat, _ := flies.Explicate()
	for _, t := range flat.Tuples() {
		fmt.Println(t)
	}
	// Output:
	// + (Robin)
	// + (Tweety)
}

// ExampleSelect shows a selection that keeps exception structure: "which
// creatures under Penguin fly?"
func ExampleSelect() {
	animals := hrdb.NewHierarchy("Animal")
	_ = animals.AddClass("Bird")
	_ = animals.AddClass("Penguin", "Bird")
	_ = animals.AddClass("AFP", "Penguin")
	_ = animals.AddInstance("Paul", "Penguin")
	_ = animals.AddInstance("Pam", "AFP")

	flies := hrdb.NewRelation("Flies", hrdb.MustSchema(
		hrdb.Attribute{Name: "Creature", Domain: animals}))
	_ = flies.Assert("Bird")
	_ = flies.Deny("Penguin")
	_ = flies.Assert("AFP")

	sel, _ := hrdb.Select("σ", flies, hrdb.Condition{Attr: "Creature", Class: "Penguin"})
	ext, _ := sel.Extension()
	fmt.Println(ext)
	// Output: [(Pam)]
}

// ExampleNewSession shows HQL end to end, including a deduction.
func ExampleNewSession() {
	sess := hrdb.NewSession(hrdb.NewDatabase())
	out, _ := sess.Exec(`
CREATE HIERARCHY Animal;
CLASS Bird UNDER Animal;
INSTANCE Tweety UNDER Bird;
CREATE RELATION Flies (Creature: Animal);
ASSERT Flies (Bird);
RULE travelsFar(?X) IF Flies(?X);
INFER travelsFar(Tweety);
`)
	lines := out[len(out)-5:]
	fmt.Print(lines)
	// Output: true
}

// ExampleNewPartial shows existential assertions: some swan flies, but
// nobody knows which.
func ExampleNewPartial() {
	animals := hrdb.NewHierarchy("Animal")
	_ = animals.AddClass("Swan")
	_ = animals.AddInstance("Sally", "Swan")

	flies := hrdb.NewRelation("Flies", hrdb.MustSchema(
		hrdb.Attribute{Name: "Creature", Domain: animals}))
	p := hrdb.NewPartial(flies)
	_ = p.AssertSome("Swan")

	some, _ := p.HoldsSome("Swan")
	every, _ := p.HoldsEvery("Swan")
	sally, _ := p.HoldsSome("Sally")
	fmt.Println(some, every, sally)
	// Output: true unknown unknown
}

// ExampleEvaluateOpenWorld shows the open-world reading (§4): without the
// universal negated tuple, an item no tuple applies to is Unknown.
func ExampleEvaluateOpenWorld() {
	animals := hrdb.NewHierarchy("Animal")
	_ = animals.AddClass("Bird")
	_ = animals.AddClass("Penguin", "Bird")
	_ = animals.AddInstance("Tweety", "Bird")
	_ = animals.AddInstance("Paul", "Penguin")
	_ = animals.AddInstance("Nemo")

	flies := hrdb.NewRelation("Flies", hrdb.MustSchema(
		hrdb.Attribute{Name: "Creature", Domain: animals}))
	_ = flies.Assert("Bird")
	_ = flies.Deny("Penguin")

	for _, c := range []string{"Tweety", "Paul", "Nemo"} {
		switch v, _ := hrdb.EvaluateOpenWorld(flies, hrdb.Item{c}); v {
		case hrdb.True:
			fmt.Println(c, "flies")
		case hrdb.False:
			fmt.Println(c, "does not fly")
		case hrdb.Unknown:
			fmt.Println(c, "is not known to fly")
		}
	}
	// Output:
	// Tweety flies
	// Paul does not fly
	// Nemo is not known to fly
}

// ExampleRelation_CacheStats shows the table a relation keeps per state: a
// repeated Evaluate at an unchanged state is a hit in the Verdicts slot, and
// no HQL answer was kept in the Answers slot.
func ExampleRelation_CacheStats() {
	animals := hrdb.NewHierarchy("Animal")
	_ = animals.AddInstance("Tweety")
	flies := hrdb.NewRelation("Flies", hrdb.MustSchema(
		hrdb.Attribute{Name: "Creature", Domain: animals}))
	_ = flies.Assert("Animal")

	for i := 0; i < 3; i++ {
		_, _ = flies.Holds("Tweety")
	}
	hits, misses, kept := flies.CacheStats()
	fmt.Println(hits[hrdb.Verdicts], misses[hrdb.Verdicts], kept[hrdb.Verdicts], kept[hrdb.Answers])
	// Output: 2 1 1 0
}
