// Command hrbench runs the performance experiments E1–E7 of EXPERIMENTS.md,
// prints their tables and checks, in the same run, the shape each one
// claims. The paper (a model paper) reports no absolute numbers; these
// experiments quantify the claims its prose makes — storage compression from
// class tuples (§1), the join degradation of the flat alternative (footnote
// 1), the integrity check (§3.1), the costs of the new operators (§3.3,
// §3.4) and mechanical organization of flat relations (§4).
//
// Counts are checked exactly and timings only as ratios within the run, so
// no baseline from another machine is needed. A claim that fails prints one
// line naming it and exits 1.
//
//	hrbench               # all experiments
//	hrbench E1 E2         # selected experiments
package main

import (
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"hrdb/internal/algebra"
	"hrdb/internal/core"
	"hrdb/internal/mining"
	"hrdb/internal/workload"
)

func main() {
	exps := map[string]func() error{
		"E1": e1Storage,
		"E2": e2Joins,
		"E3": e3Consolidate,
		"E4": e4Explicate,
		"E5": e5Algebra,
		"E6": e6Consistency,
		"E7": e7Mining,
	}
	known := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7"}
	args := os.Args[1:]
	if len(args) == 0 {
		args = known
	}
	for _, a := range args {
		name := strings.ToUpper(a)
		f, ok := exps[name]
		if !ok {
			log.Fatalf("unknown experiment %q (known: %s)", a, strings.Join(known, ", "))
		}
		if err := f(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// header prints an experiment's title and what its timings were taken on.
func header(title string) {
	fmt.Printf("\n## %s\n\nGOMAXPROCS=%d, CPU %s, k=%d samples per timing, shown as median [q1–q3]\n\n",
		title, runtime.GOMAXPROCS(0), cpuModel(), samples)
}

// cpuModel reads the CPU model from /proc/cpuinfo, where there is one.
func cpuModel() string {
	info, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// timeIt runs f repeatedly for at least 20ms and returns ns/op.
func timeIt(f func()) float64 {
	// warm up
	f()
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		elapsed := time.Since(start)
		if elapsed > 20*time.Millisecond || n > 1<<20 {
			return float64(elapsed.Nanoseconds()) / float64(n)
		}
		n *= 2
	}
}

// samples is how many timeIt measurements a dist summarizes.
const samples = 7

// dist is a timing distribution in ns per operation: the median of samples
// timeIt measurements and the interquartile range around it.
type dist struct {
	MedianNs float64
	IQR      [2]float64
}

// sampleNs measures f samples times.
func sampleNs(f func()) dist {
	ns := make([]float64, samples)
	for i := range ns {
		ns[i] = timeIt(f)
	}
	return distOf(ns)
}

// distOf summarizes ns, which it sorts.
func distOf(ns []float64) dist {
	sort.Float64s(ns)
	n := len(ns)
	return dist{MedianNs: ns[n/2], IQR: [2]float64{ns[n/4], ns[3*n/4]}}
}

func (d dist) String() string {
	return fmt.Sprintf("%s [%s–%s]", fmtNs(d.MedianNs), fmtNs(d.IQR[0]), fmtNs(d.IQR[1]))
}

// fmtNs renders nanoseconds human-readably.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

type e1Row struct{ classes, fanout, flatRows, flatBytes, hierTuples, hierBytes int }

// e1Storage: one class tuple vs fanout flat rows (§1's storage claim).
func e1Storage() error {
	header("E1 — storage: class tuples vs flat rows (paper §1)")
	fmt.Println("| classes | fanout | flat rows | flat bytes | hier tuples | hier bytes | compression |")
	fmt.Println("|---|---|---|---|---|---|---|")
	var rows []e1Row
	for _, p := range []struct{ classes, fanout int }{
		{10, 10}, {10, 100}, {10, 1000}, {100, 100},
	} {
		h, err := workload.Taxonomy("D", p.classes, p.fanout)
		check(err)
		r, err := workload.ClassRelation("R", h, p.classes)
		check(err)
		flatRel, err := r.Explicate()
		check(err)
		flatRel = flatRel.Consolidate()
		row := e1Row{p.classes, p.fanout, flatRel.Len(), workload.ApproxTupleBytes(flatRel), r.Len(), workload.ApproxTupleBytes(r)}
		fmt.Printf("| %d | %d | %d | %d | %d | %d | %.0f× |\n", row.classes, row.fanout, row.flatRows,
			row.flatBytes, row.hierTuples, row.hierBytes, float64(row.flatBytes)/float64(row.hierBytes))
		rows = append(rows, row)
	}
	return e1Check(rows)
}

// e1Check: a class tuple stands for its fanout instances, so the flat form
// is at least fanout times larger, and the hierarchical bytes depend on the
// classes alone.
func e1Check(rows []e1Row) error {
	hierBytes := map[int]int{}
	for _, r := range rows {
		if r.flatBytes < r.fanout*r.hierBytes {
			return fmt.Errorf("compression %.1f× at fanout %d, want at least the fanout",
				float64(r.flatBytes)/float64(r.hierBytes), r.fanout)
		}
		if b, ok := hierBytes[r.classes]; ok && b != r.hierBytes {
			return fmt.Errorf("%d classes take %d hier bytes at fanout %d and %d at another fanout, want no change",
				r.classes, r.hierBytes, r.fanout, b)
		}
		hierBytes[r.classes] = r.hierBytes
	}
	return nil
}

type e2Row struct {
	depth, joins int
	cacheHits    uint64
	hier, base   dist
}

// e2Joins: hierarchical evaluation vs the footnote-1 membership-join
// baseline, sweeping hierarchy depth.
func e2Joins() error {
	header("E2 — query: inheritance evaluation vs repeated membership joins (footnote 1)")
	fmt.Println("| depth | hier eval | baseline (joins) | joins/query | slowdown |")
	fmt.Println("|---|---|---|---|---|")
	var rows []e2Row
	for _, depth := range []int{2, 4, 8, 16} {
		h, err := workload.Chain("D", depth, 8)
		check(err)
		r, err := workload.ExceptionChain("R", h, depth)
		check(err)
		mb := workload.MembershipBaseline(h, r)
		depthOf := workload.DepthFunc(h)

		// Every call evaluates the same item: with the verdict cache on, all
		// but the first would time a memo hit, not inheritance.
		r.SetCache(false)
		item := core.Item{"leafInstance"}
		row := e2Row{depth: depth}
		row.hier = sampleNs(func() {
			_, err := r.Evaluate(item)
			check(err)
		})
		row.base = sampleNs(func() {
			_, row.joins = mb.Holds([]string{"X"}, []string{"leafInstance"}, depthOf)
		})
		hits, _, _ := r.CacheStats()
		row.cacheHits = hits[core.Verdicts]
		fmt.Printf("| %d | %s | %s | %d | %.1f× |\n",
			depth, row.hier, row.base, row.joins, row.base.MedianNs/row.hier.MedianNs)
		rows = append(rows, row)
	}
	return e2Check(rows)
}

// e2Check: the baseline climbs from the leaf instance to the root one
// membership join per level, depth+1 of them, plus the empty join that ends
// the climb; it is slower than inheritance evaluation at every depth; and no
// evaluation was a verdict-cache hit.
func e2Check(rows []e2Row) error {
	for _, r := range rows {
		switch {
		case r.joins != r.depth+2:
			return fmt.Errorf("%d joins per query at depth %d, want depth+2", r.joins, r.depth)
		case r.cacheHits != 0:
			return fmt.Errorf("%d verdict-cache hits at depth %d, want every call evaluated", r.cacheHits, r.depth)
		case r.base.MedianNs <= r.hier.MedianNs:
			return fmt.Errorf("baseline %s not slower than hier eval %s at depth %d",
				fmtNs(r.base.MedianNs), fmtNs(r.hier.MedianNs), r.depth)
		}
	}
	return nil
}

type e3Row struct {
	classes, redundant, before, after int
	consolidate                       dist
}

// e3Consolidate: consolidation cost and reduction (§3.3.1).
func e3Consolidate() error {
	header("E3 — consolidate: cost and tuple reduction (paper §3.3.1)")
	fmt.Println("| classes | redundant/class | tuples before | tuples after | time |")
	fmt.Println("|---|---|---|---|---|")
	var rows []e3Row
	for _, p := range []struct{ classes, redundant int }{
		{10, 10}, {20, 20}, {40, 40},
	} {
		h, err := workload.Taxonomy("D", p.classes, p.redundant+1)
		check(err)
		r, err := workload.RedundantRelation("R", h, p.classes, p.redundant)
		check(err)
		row := e3Row{classes: p.classes, redundant: p.redundant, before: r.Len()}
		row.consolidate = sampleNs(func() { row.after = r.Consolidate().Len() })
		fmt.Printf("| %d | %d | %d | %d | %s |\n", row.classes, row.redundant, row.before, row.after, row.consolidate)
		rows = append(rows, row)
	}
	return e3Check(rows)
}

// e3Check: every instance tuple repeats its class's tuple, so consolidation
// keeps exactly one tuple per class.
func e3Check(rows []e3Row) error {
	for _, r := range rows {
		if r.after != r.classes {
			return fmt.Errorf("%d of %d tuples left over %d classes, want one per class", r.after, r.before, r.classes)
		}
	}
	return nil
}

type e4Row struct {
	classes, fanout, stored, extension int
	explicate, ext, countBy, countWarm dist
}

// e4RowCostFactor bounds explicate's ns per extension row at 40,000 rows
// against the value at 4,000: explication is linear in the extension.
const e4RowCostFactor = 4

// e4Explicate: explication cost scales with the extension (§3.3.2), and so
// do the two reads built on it, EXTENSION and COUNT BY. The
// relation pairs a taxonomy of classes×fanout instances with four hue
// classes of four hues, one hue class per creature class, like the Likes
// relation of the request-path benchmark. A relation keeps its extension
// once derived, so the EXTENSION and COUNT BY columns read a relation with
// the cache off, which derives it on every read; the last column is COUNT BY
// on a relation that keeps it.
func e4Explicate() error {
	header("E4 — explicate: cost vs extension size (paper §3.3.2)")
	fmt.Println("| classes | fanout | stored tuples | extension | explicate | EXTENSION | COUNT BY (Hue) | COUNT BY (Hue), warm |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	var rows []e4Row
	for _, p := range []struct{ classes, fanout int }{
		{10, 10}, {10, 100}, {10, 1000}, {100, 100},
	} {
		creatures, err := workload.Taxonomy("D", p.classes, p.fanout)
		check(err)
		hues, err := workload.Taxonomy("Hue", 4, 4)
		check(err)
		s, err := core.NewSchema(core.Attribute{Name: "X", Domain: creatures}, core.Attribute{Name: "Hue", Domain: hues})
		check(err)
		r := core.NewRelation("R", s)
		for c := 0; c < p.classes; c++ {
			check(r.Assert(fmt.Sprintf("class%04d", c), fmt.Sprintf("class%04d", c%4)))
		}
		row := e4Row{classes: p.classes, fanout: p.fanout, stored: r.Len()}
		row.explicate = sampleNs(func() {
			flatRel, err := r.Explicate()
			check(err)
			row.extension = flatRel.Len()
		})
		cold := r.Clone()
		cold.SetCache(false)
		row.ext = sampleNs(func() {
			_, err := cold.Extension()
			check(err)
		})
		row.countBy = sampleNs(func() {
			_, err := algebra.Count(cold, "Hue")
			check(err)
		})
		row.countWarm = sampleNs(func() {
			_, err := algebra.Count(r, "Hue")
			check(err)
		})
		fmt.Printf("| %d | %d | %d | %d | %s | %s | %s | %s |\n", row.classes, row.fanout, row.stored, row.extension,
			row.explicate, row.ext, row.countBy, row.countWarm)
		rows = append(rows, row)
	}
	return e4Check(rows)
}

// e4Check: the extension pairs each of classes×fanout instances with the
// four hues of its class's hue class, and explicate's cost per extension row
// at 40,000 rows is within e4RowCostFactor of its cost at 4,000.
func e4Check(rows []e4Row) error {
	var small float64 // ns per extension row in the 4,000-row cell, which the sweep runs first
	for _, r := range rows {
		perRow := r.explicate.MedianNs / float64(r.extension)
		switch want := r.classes * r.fanout * 4; {
		case r.extension != want:
			return fmt.Errorf("extension %d at %d classes × fanout %d, want %d", r.extension, r.classes, r.fanout, want)
		case r.extension == 4000:
			small = perRow
		case r.extension == 40000 && perRow > e4RowCostFactor*small:
			return fmt.Errorf("explicate %s per row at 40,000 rows (%d classes) vs %s at 4,000, want within %d×",
				fmtNs(perRow), r.classes, fmtNs(small), e4RowCostFactor)
		}
	}
	return nil
}

type e5Row struct {
	a, b, union                  int
	unionT, intersect, diff, sel dist
}

// e5Algebra: operator costs on compact relations (§3.4).
func e5Algebra() error {
	header("E5 — algebra: operators on compact relations (paper §3.4)")
	fmt.Println("| tuples/arg | union | intersect | difference | select | result tuples (union) |")
	fmt.Println("|---|---|---|---|---|---|")
	var rows []e5Row
	for _, tuples := range []int{5, 10, 20} {
		a, err := workload.RandomConsistent(int64(tuples), "A", 30, tuples)
		check(err)
		b2, err := workload.RandomConsistent(int64(tuples)+1000, "A", 30, tuples)
		check(err)
		// Arguments must share a schema: reuse a's schema by rebuilding b2
		// over it.
		b := core.NewRelation("B", a.Schema())
		pools := [][]string{a.Schema().Attr(0).Domain.Nodes(), a.Schema().Attr(1).Domain.Nodes()}
		i := 0
		for _, t := range b2.Tuples() {
			item := core.Item{pools[0][i%len(pools[0])], pools[1][(i*7)%len(pools[1])]}
			i++
			if _, present := b.Lookup(item); present {
				continue
			}
			if err := b.Insert(item, t.Sign); err != nil {
				continue
			}
			if len(b.Conflicts()) > 0 {
				b.Retract(item)
			}
		}

		row := e5Row{a: a.Len(), b: b.Len()}
		row.unionT = sampleNs(func() {
			u, err := algebra.Union("U", a, b)
			check(err)
			row.union = u.Len()
		})
		row.intersect = sampleNs(func() {
			_, err := algebra.Intersect("I", a, b)
			check(err)
		})
		row.diff = sampleNs(func() {
			_, err := algebra.Difference("D", a, b)
			check(err)
		})
		class := a.Schema().Attr(0).Domain.Nodes()[1]
		row.sel = sampleNs(func() {
			_, err := algebra.Select("S", a, algebra.Condition{Attr: "A0", Class: class})
			check(err)
		})
		fmt.Printf("| %d+%d | %s | %s | %s | %s | %d |\n",
			row.a, row.b, row.unionT, row.intersect, row.diff, row.sel, row.union)
		rows = append(rows, row)
	}
	return e5Check(rows)
}

// e5Check: a union's tuples are the arguments' tuples plus at most one
// resolving tuple per pair of them, so it stays compact.
func e5Check(rows []e5Row) error {
	for _, r := range rows {
		if limit := r.a + r.b + r.a*r.b; r.union > limit {
			return fmt.Errorf("union of %d+%d tuples has %d, want at most %d", r.a, r.b, r.union, limit)
		}
	}
	return nil
}

type e7Row struct {
	groups, members, contexts, flatRows, mined int
	mine                                       dist
}

// e7Mining: the §4 extension — automatic organization of flat relations.
func e7Mining() error {
	header("E7 — mining: mechanical hierarchy discovery (paper §4)")
	fmt.Println("| groups | members | contexts | flat rows | mined tuples | compression | time |")
	fmt.Println("|---|---|---|---|---|---|---|")
	var rows []e7Row
	for _, p := range []struct{ groups, members, contexts int }{
		{5, 10, 4}, {10, 20, 5}, {20, 50, 4},
	} {
		r := workload.ClusteredFlat("R", p.groups, p.members, p.contexts)
		var res *mining.Result
		row := e7Row{groups: p.groups, members: p.members, contexts: p.contexts}
		row.mine = sampleNs(func() {
			var err error
			res, err = mining.Mine(r, 0)
			check(err)
		})
		row.flatRows, row.mined = res.FlatRows, res.StoredTuples
		fmt.Printf("| %d | %d | %d | %d | %d | %.0f× | %s |\n",
			row.groups, row.members, row.contexts, row.flatRows, row.mined, res.CompressionRatio(), row.mine)
		rows = append(rows, row)
	}
	return e7Check(rows)
}

// e7Check: each group's members share all its contexts, so mining stores one
// tuple per (group class, context) and each stands for the group's members.
func e7Check(rows []e7Row) error {
	for _, r := range rows {
		if r.flatRows != r.mined*r.members {
			return fmt.Errorf("%d flat rows mined into %d tuples with %d members per group, want rows = tuples × members",
				r.flatRows, r.mined, r.members)
		}
	}
	return nil
}
