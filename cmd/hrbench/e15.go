package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"sync"

	"hrdb/internal/catalog"
	"hrdb/internal/hql"
	"hrdb/internal/storage"
	"hrdb/internal/view"
)

// e15Row is one fixture size's materialized-view measurement.
type e15Row struct {
	Classes      int     `json:"classes"`
	Fanout       int     `json:"fanout"`
	ViewRows     int     `json:"view_rows"`
	RequeryNs    float64 `json:"requery_ns"`
	WarmReadNs   float64 `json:"warm_read_ns"`
	Speedup      float64 `json:"speedup"`
	DeltaApplyNs float64 `json:"delta_apply_ns"`
	// The same one-row write folded into a SELECT view and a COUNT view.
	SelectDeltaNs float64 `json:"select_delta_apply_ns"`
	CountDeltaNs  float64 `json:"count_delta_apply_ns"`
	Deltas        uint64  `json:"deltas_applied"`
	Recomputes    uint64  `json:"recomputes"`
}

// e15Fixture builds a durable store holding a classes×fanout taxonomy with
// every class asserted at the class level — so the relation stores `classes`
// tuples whose flat extension is classes×fanout rows — plus a spare class Z
// with one unasserted instance z0 for one-row delta probes. A view manager
// runs over it; the experiment creates one view at a time.
func e15Fixture(classes, fanout int) (st *storage.Store, m *view.Manager, cleanup func()) {
	dir, err := os.MkdirTemp("", "hrbench-e15-*")
	check(err)
	st, err = storage.Open(dir)
	check(err)
	check(st.CreateHierarchy("D"))
	for c := 0; c < classes; c++ {
		check(st.AddClass("D", fmt.Sprintf("C%d", c)))
	}
	check(st.AddClass("D", "Z"))
	check(st.AddInstance("D", "z0", "Z"))
	// Concurrent seeding lets group commit amortize the fsyncs.
	total := classes * fanout
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < total; i += workers {
				check(st.AddInstance("D", fmt.Sprintf("i%06d", i), fmt.Sprintf("C%d", i%classes)))
			}
		}(w)
	}
	wg.Wait()
	check(st.CreateRelation("R", catalog.AttrSpec{Name: "X", Domain: "D"}))
	for c := 0; c < classes; c++ {
		check(st.Assert("R", fmt.Sprintf("C%d", c)))
	}
	m, err = view.Open(st, view.Options{})
	check(err)
	return st, m, func() {
		check(m.Close())
		check(st.Close())
		check(os.RemoveAll(dir))
	}
}

// e15Views: materialized inherited views. The defining query flattens the
// class-level relation through the hierarchy, so re-running it costs
// O(extension); a warm view read returns the maintained rows without any
// evaluation, and a one-tuple write folds into the view as an O(delta)
// journal entry rather than a recompute — into the extension, into a SELECT
// over the whole relation, and into a COUNT alike. The speedup column is
// requery/warm-read; the acceptance bars are ≥10× at the 10k-row fixture, no
// recompute on the tuple-only stream, and every delta-apply latency within
// 1.5× while the relation's extension grows 10× — the O(delta) evidence.
func e15Views() {
	header("E15 — materialized views: warm reads vs re-query, delta-apply cost")
	fmt.Println("| classes | fanout | view rows | re-run query | warm view read | speedup | delta apply | select delta | count delta | deltas | recomputes |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|---|")

	ctx := context.Background()
	type fixture struct {
		st  *storage.Store
		m   *view.Manager
		row *e15Row
	}
	var fixtures []fixture
	for _, p := range []struct{ classes, fanout int }{
		{10, 100}, {10, 400}, {10, 1000},
	} {
		st, m, cleanup := e15Fixture(p.classes, p.fanout)
		defer cleanup()
		fixtures = append(fixtures, fixture{st, m, &e15Row{Classes: p.classes, Fanout: p.fanout}})
	}

	// deltaProbe maintains one view of the query alone on every fixture and
	// times a one-row delta: assert/retract an instance tuple no class tuple
	// covers, waiting for the maintenance loop to fold each side in. Each
	// side waits on an fsync, whose jitter dwarfs the fold and drifts over
	// seconds, so the passes alternate between the fixtures and the best of
	// seven is kept: that is what the 1.5× bound below compares. A view is
	// created once the tail has passed the fixture, so whatever it
	// recomputes from then on, the tuple stream caused.
	deltaProbe := func(query string, ns func(*e15Row) *float64, during func(fixture)) {
		for _, f := range fixtures {
			check(f.m.Wait(ctx))
			check(f.m.Create("v", query))
			*ns(f.row) = math.Inf(1)
			if during != nil {
				during(f)
			}
		}
		for pass := 0; pass < 7; pass++ {
			for _, f := range fixtures {
				*ns(f.row) = min(*ns(f.row), timeIt(func() {
					check(f.st.Assert("R", "z0"))
					check(f.m.Wait(ctx))
					check(f.st.Retract("R", "z0"))
					check(f.m.Wait(ctx))
				})/2) // two deltas per cycle
			}
		}
		for _, f := range fixtures {
			d, r, err := f.m.Stats("v")
			check(err)
			f.row.Deltas, f.row.Recomputes = f.row.Deltas+d, f.row.Recomputes+r
			check(f.m.Drop("v"))
		}
	}
	deltaProbe("EXTENSION R", func(r *e15Row) *float64 { return &r.DeltaApplyNs }, func(f fixture) {
		// Re-running the defining flattening query evaluates every stored
		// tuple's extension from scratch.
		sess := hql.NewSession(view.NewTarget(f.st, f.m))
		f.row.RequeryNs = timeIt(func() {
			if _, err := sess.Exec("EXTENSION R;"); err != nil {
				log.Fatal(err)
			}
		})
		// A warm view read is the maintained result, copied out.
		f.row.WarmReadNs = timeIt(func() {
			rs, err := f.m.Rows("v")
			if err != nil {
				log.Fatal(err)
			}
			f.row.ViewRows = len(rs)
		})
		f.row.Speedup = f.row.RequeryNs / f.row.WarmReadNs
	})
	deltaProbe("SELECT FROM R", func(r *e15Row) *float64 { return &r.SelectDeltaNs }, nil)
	deltaProbe("COUNT R", func(r *e15Row) *float64 { return &r.CountDeltaNs }, nil)

	var rows []e15Row
	for _, f := range fixtures {
		row := *f.row
		rows = append(rows, row)
		fmt.Printf("| %d | %d | %d | %s | %s | %.0f× | %s | %s | %s | %d | %d |\n",
			row.Classes, row.Fanout, row.ViewRows, fmtNs(row.RequeryNs),
			fmtNs(row.WarmReadNs), row.Speedup, fmtNs(row.DeltaApplyNs),
			fmtNs(row.SelectDeltaNs), fmtNs(row.CountDeltaNs), row.Deltas, row.Recomputes)
		if row.Recomputes != 0 {
			log.Fatalf("E15: %d recomputes — tuple-only writes must take the delta path", row.Recomputes)
		}
	}
	last := rows[len(rows)-1]
	if last.Speedup < 10 {
		log.Fatalf("E15: warm view read only %.1f× faster than re-query at %d rows (want ≥10×)",
			last.Speedup, last.ViewRows)
	}
	for _, c := range []struct {
		view        string
		first, last float64
	}{
		{"extension", rows[0].DeltaApplyNs, last.DeltaApplyNs},
		{"select", rows[0].SelectDeltaNs, last.SelectDeltaNs},
		{"count", rows[0].CountDeltaNs, last.CountDeltaNs},
	} {
		if c.last > 1.5*c.first {
			log.Fatalf("E15: %s delta apply %s at %d rows vs %s at %d rows (want within 1.5×)",
				c.view, fmtNs(c.last), last.ViewRows, fmtNs(c.first), rows[0].ViewRows)
		}
	}
	fmt.Printf("\nwarm read speedup at %d rows: %.0f×; delta apply %s (%d rows) vs %s (%d rows)\n",
		last.ViewRows, last.Speedup,
		fmtNs(rows[0].DeltaApplyNs), rows[0].ViewRows, fmtNs(last.DeltaApplyNs), last.ViewRows)
	emitJSON("E15", struct {
		Rows []e15Row `json:"rows"`
	}{rows})
}
