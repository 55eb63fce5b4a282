package main

import (
	"fmt"
	"log"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
	"hrdb/internal/workload"
)

// e6CheckRow is one relation size's whole-relation check.
type e6CheckRow struct {
	Tuples    int     `json:"tuples"`
	HierNodes int     `json:"hier_nodes"`
	CheckNs   float64 `json:"full_check_ns"`
}

// e6WriteRow is one relation size's cost of a single consistent write,
// verified by the full sweep and by the delta check.
type e6WriteRow struct {
	Tuples      int     `json:"tuples"`
	HierNodes   int     `json:"hier_nodes"`
	FullNs      float64 `json:"full_p50_ns"`
	FullAllocs  float64 `json:"full_allocs_per_op"`
	DeltaNs     float64 `json:"delta_p50_ns"`
	DeltaAllocs float64 `json:"delta_allocs_per_op"`
	Speedup     float64 `json:"speedup"`
}

// The taxonomy every E6 write fixture is built over: the hierarchy stays the
// same size while the stored tuples grow, so the table isolates the tuples.
const e6Classes, e6Fanout = 128, 100

// e6Fixture attaches to a fresh database a relation R of n tuples over the
// e6Classes×e6Fanout taxonomy: a positive tuple on every tenth class, the rest on
// distinct instances, one in ten negated (an exception wherever its class
// is positive). Consistent by construction, so loading it needs no check.
// It returns the database and the instances R does not mention.
func e6Fixture(n int) (*catalog.Database, []string) {
	const classes, fanout = e6Classes, e6Fanout
	h, err := workload.Taxonomy("D", classes, fanout)
	check(err)
	s, err := core.NewSchema(core.Attribute{Name: "X", Domain: h})
	check(err)
	r := core.NewRelation("R", s)
	for c := 0; c < classes && r.Len() < n/10; c += 10 {
		check(r.Assert(fmt.Sprintf("class%04d", c)))
	}
	rng := rand.New(rand.NewSource(int64(n)))
	var free []string
	for _, i := range rng.Perm(classes * fanout) {
		inst := fmt.Sprintf("c%04d_i%05d", i/fanout, i%fanout)
		if r.Len() < n {
			check(r.Insert(core.Item{inst}, r.Len()%10 != 0))
		} else {
			free = append(free, inst)
		}
	}
	h.Warm()
	db := catalog.New()
	check(db.AttachHierarchy(h))
	check(db.AttachRelation(r))
	return db, free
}

// e6Write times k DENY statements on fresh instances (each retracted again,
// untimed) and returns the median and the mean allocation count. prepare
// runs, untimed, before each.
func e6Write(db *catalog.Database, free []string, k int, prepare func()) (p50Ns, allocs float64) {
	lat := make([]time.Duration, k)
	var mallocs uint64
	var m0, m1 runtime.MemStats
	for i := range lat {
		prepare()
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		err := db.Deny("R", free[i])
		lat[i] = time.Since(t0)
		runtime.ReadMemStats(&m1)
		check(err)
		mallocs += m1.Mallocs - m0.Mallocs
		_, err = db.Retract("R", free[i])
		check(err)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return float64(lat[k/2].Nanoseconds()), float64(mallocs) / float64(k)
}

// e6Consistency: the ambiguity-constraint checker (§3.1) — the whole-
// relation sweep, then what one write pays when it is verified by that
// sweep and when it is verified by the delta check.
func e6Consistency() {
	header("E6 — integrity: ambiguity-constraint check cost (paper §3.1)")
	fmt.Println("| tuples | hierarchy nodes | time/check |")
	fmt.Println("|---|---|---|")
	var checks []e6CheckRow
	for _, p := range []struct{ nodes, tuples int }{
		{20, 10}, {40, 20}, {80, 40},
	} {
		r, err := workload.RandomConsistent(int64(p.nodes), "R", p.nodes, p.tuples)
		check(err)
		ns := timeIt(func() {
			if err := r.CheckConsistency(); err != nil {
				log.Fatal(err)
			}
		})
		fmt.Printf("| %d | %d | %s |\n", r.Len(), p.nodes, fmtNs(ns))
		checks = append(checks, e6CheckRow{r.Len(), p.nodes, ns})
	}

	fmt.Printf("\nOne consistent DENY on an unmentioned instance (insert + check), GOMAXPROCS = %d.\n\n", runtime.GOMAXPROCS(0))
	fmt.Println("| stored tuples | hierarchy nodes | full check p50 | allocs | delta check p50 | allocs | speedup |")
	fmt.Println("|---|---|---|---|---|---|---|")
	var writes []e6WriteRow
	for _, p := range []struct{ tuples, fullRuns int }{
		{100, 21}, {1000, 5}, {10000, 1}, // the sweep is quadratic: one run at 10,000 takes seconds
	} {
		db, free := e6Fixture(p.tuples)
		// A SET MODE to the mode in force moves the relation's epoch and
		// nothing else: the next write finds no matching stamp and sweeps.
		unverify := func() { check(db.SetMode("R", core.OffPath)) }
		row := e6WriteRow{Tuples: p.tuples, HierNodes: e6Classes*e6Fanout + e6Classes + 1}
		row.FullNs, row.FullAllocs = e6Write(db, free, p.fullRuns, unverify)
		row.DeltaNs, row.DeltaAllocs = e6Write(db, free[p.fullRuns:], 201, func() {})
		row.Speedup = row.FullNs / row.DeltaNs
		fmt.Printf("| %d | %d | %s | %.0f | %s | %.0f | %.0fx |\n", row.Tuples, row.HierNodes,
			fmtNs(row.FullNs), row.FullAllocs, fmtNs(row.DeltaNs), row.DeltaAllocs, row.Speedup)
		writes = append(writes, row)
	}
	if first, last := writes[0], writes[len(writes)-1]; last.DeltaNs > 2*first.DeltaNs {
		log.Fatalf("E6: delta check is not flat: %s at %d tuples, %s at %d",
			fmtNs(first.DeltaNs), first.Tuples, fmtNs(last.DeltaNs), last.Tuples)
	}
	emitJSON("E6", struct {
		GOMAXPROCS int          `json:"gomaxprocs"`
		Checks     []e6CheckRow `json:"checks"`
		Writes     []e6WriteRow `json:"writes"`
	}{runtime.GOMAXPROCS(0), checks, writes})
}
