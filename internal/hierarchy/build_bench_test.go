package hierarchy

import (
	"fmt"
	"testing"
)

// BenchmarkBuildHierarchy builds a hierarchy of the request-path
// benchmark's Animal shape — a depth-5 ternary tree of classes, 3,978
// instances dealt over the bottom classes, 5% of them with a second parent,
// about 4.4k nodes — and reports what one build costs in time, bytes and
// allocations.
func BenchmarkBuildHierarchy(b *testing.B) {
	type node struct {
		name    string
		parents []string
	}
	var classes, instances []node
	level := []string{"Animal"}
	for depth := 1; depth <= 5; depth++ {
		var next []string
		for _, p := range level {
			for k := 0; k < 3; k++ {
				c := fmt.Sprintf("%s.%d", p, k)
				classes = append(classes, node{c, []string{p}})
				next = append(next, c)
			}
		}
		level = next
	}
	for i := 0; i < 3978; i++ {
		parents := []string{level[i%len(level)]}
		if i%20 == 0 {
			parents = append(parents, level[(i+7)%len(level)])
		}
		instances = append(instances, node{fmt.Sprintf("i%05d", i), parents})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := New("Animal")
		for _, c := range classes {
			if err := h.AddClass(c.name, c.parents...); err != nil {
				b.Fatal(err)
			}
		}
		for _, n := range instances {
			if err := h.AddInstance(n.name, n.parents...); err != nil {
				b.Fatal(err)
			}
		}
		if h.Len() != 1+len(classes)+len(instances) {
			b.Fatalf("built %d nodes, want %d", h.Len(), 1+len(classes)+len(instances))
		}
	}
}
