package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
	"hrdb/internal/workload"
)

// e6WriteRow is one relation size's cost of a single consistent write,
// verified by the full sweep and by the delta check.
type e6WriteRow struct {
	tuples, hierNodes       int
	full, delta             dist
	fullAllocs, deltaAllocs float64
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
	h, err := workload.Taxonomy("D", e6Classes, e6Fanout)
	check(err)
	s, err := core.NewSchema(core.Attribute{Name: "X", Domain: h})
	check(err)
	r := core.NewRelation("R", s)
	for c := 0; c < e6Classes && r.Len() < n/10; c += 10 {
		check(r.Assert(fmt.Sprintf("class%04d", c)))
	}
	rng := rand.New(rand.NewSource(int64(n)))
	var free []string
	for _, i := range rng.Perm(e6Classes * e6Fanout) {
		inst := fmt.Sprintf("c%04d_i%05d", i/e6Fanout, i%e6Fanout)
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

// e6Writes times k DENY statements on fresh instances of each database
// (each retracted again, untimed) and returns per database their latency
// distribution and mean allocation count. It takes the databases in turn,
// one DENY each per round, so every database's DENYs run beside the same
// neighbours: the same heap, the same collections, the same machine load.
// prepare runs, untimed, before each DENY.
func e6Writes(dbs []*catalog.Database, free [][]string, k int, prepare func()) (lats []dist, allocs []float64) {
	ns := make([][]float64, len(dbs))
	mallocs := make([]uint64, len(dbs))
	var m0, m1 runtime.MemStats
	for i := 0; i < k; i++ {
		for d, db := range dbs {
			prepare()
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			err := db.Deny("R", free[d][i])
			ns[d] = append(ns[d], float64(time.Since(t0).Nanoseconds()))
			runtime.ReadMemStats(&m1)
			check(err)
			mallocs[d] += m1.Mallocs - m0.Mallocs
			_, err = db.Retract("R", free[d][i])
			check(err)
		}
	}
	for d := range dbs {
		lats = append(lats, distOf(ns[d]))
		allocs = append(allocs, float64(mallocs[d])/float64(k))
	}
	return lats, allocs
}

// e6DeltaFactor bounds the delta check's median at the largest relation
// against the smallest: a write verifies only the region it changed.
const e6DeltaFactor = 2

// e6Consistency: the ambiguity-constraint checker (§3.1) — the whole-
// relation sweep, then what one write pays when it is verified by that
// sweep and when it is verified by the delta check.
func e6Consistency() error {
	header("E6 — integrity: ambiguity-constraint check cost (paper §3.1)")
	fmt.Println("| tuples | hierarchy nodes | time/check |")
	fmt.Println("|---|---|---|")
	for _, p := range []struct{ nodes, tuples int }{
		{20, 10}, {40, 20}, {80, 40},
	} {
		r, err := workload.RandomConsistent(int64(p.nodes), "R", p.nodes, p.tuples)
		check(err)
		d := sampleNs(func() { check(r.CheckConsistency()) })
		fmt.Printf("| %d | %d | %s |\n", r.Len(), p.nodes, d)
	}

	fmt.Println("\nOne consistent DENY on an unmentioned instance (insert + check); k is the number of DENYs per cell.")
	fmt.Println()
	fmt.Println("| stored tuples | hierarchy nodes | full check (k) | allocs | delta check (k=201) | allocs | speedup |")
	fmt.Println("|---|---|---|---|---|---|---|")
	cells := []struct{ tuples, fullRuns int }{
		{100, 21}, {1000, 5}, {10000, 1}, // the sweep is quadratic: one run at 10,000 takes seconds
	}
	writes := make([]e6WriteRow, len(cells))
	dbs := make([]*catalog.Database, len(cells))
	free := make([][]string, len(cells))
	for c, p := range cells {
		db, unmentioned := e6Fixture(p.tuples)
		// A SET MODE to the mode in force moves the relation's epoch and
		// nothing else: the next write finds no matching stamp and sweeps.
		unverify := func() { check(db.SetMode("R", core.OffPath)) }
		full, allocs := e6Writes([]*catalog.Database{db}, [][]string{unmentioned}, p.fullRuns, unverify)
		writes[c] = e6WriteRow{tuples: p.tuples, hierNodes: e6Classes*e6Fanout + e6Classes + 1, full: full[0], fullAllocs: allocs[0]}
		dbs[c], free[c] = db, unmentioned[p.fullRuns:]
	}
	// The delta DENYs of every cell interleave: the flatness bound compares
	// cells, so they must not each run in a different stretch of time.
	delta, allocs := e6Writes(dbs, free, 201, func() {})
	for c, row := range writes {
		row.delta, row.deltaAllocs = delta[c], allocs[c]
		fmt.Printf("| %d | %d | %s (%d) | %.0f | %s | %.0f | %.0fx |\n", row.tuples, row.hierNodes,
			row.full, cells[c].fullRuns, row.fullAllocs, row.delta, row.deltaAllocs, row.full.MedianNs/row.delta.MedianNs)
		writes[c] = row
	}
	return e6Check(writes)
}

// e6Check: the delta check stays flat while the stored tuples grow 100×.
func e6Check(writes []e6WriteRow) error {
	if first, last := writes[0], writes[len(writes)-1]; last.delta.MedianNs > e6DeltaFactor*first.delta.MedianNs {
		return fmt.Errorf("delta check is not flat: %s at %d tuples, %s at %d, want within %d×",
			fmtNs(first.delta.MedianNs), first.tuples, fmtNs(last.delta.MedianNs), last.tuples, e6DeltaFactor)
	}
	return nil
}
