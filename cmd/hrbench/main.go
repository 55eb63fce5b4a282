// Command hrbench runs the performance experiments E1–E15 of EXPERIMENTS.md
// and prints their tables. The paper (a model paper) reports no absolute
// numbers; these experiments quantify the claims its prose makes — storage
// compression from class tuples (§1), the join degradation of the flat
// alternative (footnote 1), and the costs of the new operators (§3.3).
//
//	hrbench               # all experiments
//	hrbench E1 E2         # selected experiments
//	hrbench -json . E13   # also write BENCH_E13.json for CI artifacts
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"hrdb"
	"hrdb/internal/algebra"
	"hrdb/internal/catalog"
	"hrdb/internal/core"
	"hrdb/internal/mining"
	"hrdb/internal/storage"
	"hrdb/internal/workload"
)

func main() {
	exps := map[string]func(){
		"E1":  e1Storage,
		"E2":  e2Joins,
		"E3":  e3Consolidate,
		"E4":  e4Explicate,
		"E5":  e5Algebra,
		"E6":  e6Consistency,
		"E7":  e7Mining,
		"E8":  e8Durability,
		"E9":  e9Parallel,
		"E10": e10GroupCommit,
		"E11": e11Replication,
		"E12": e12Multiplexing,
		"E13": e13Planner,
		"E14": e14Sharding,
		"E15": e15Views,
	}
	flag.StringVar(&jsonDir, "json", "", "directory to also write machine-readable BENCH_<exp>.json files to")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15"}
	}
	for _, a := range args {
		f, ok := exps[strings.ToUpper(a)]
		if !ok {
			var known []string
			for k := range exps {
				known = append(known, k)
			}
			sort.Strings(known)
			log.Fatalf("unknown experiment %q (known: %s)", a, strings.Join(known, ", "))
		}
		f()
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func header(title string) {
	fmt.Println()
	fmt.Println("## " + title)
	fmt.Println()
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

// e1Storage: one class tuple vs fanout flat rows (§1's storage claim).
func e1Storage() {
	header("E1 — storage: class tuples vs flat rows (paper §1)")
	fmt.Println("| classes | fanout | flat rows | flat bytes | hier tuples | hier bytes | compression |")
	fmt.Println("|---|---|---|---|---|---|---|")
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
		hb := workload.ApproxTupleBytes(r)
		fb := workload.ApproxTupleBytes(flatRel)
		fmt.Printf("| %d | %d | %d | %d | %d | %d | %.0f× |\n",
			p.classes, p.fanout, flatRel.Len(), fb, r.Len(), hb, float64(fb)/float64(hb))
	}
}

// e2Joins: hierarchical evaluation vs the footnote-1 membership-join
// baseline, sweeping hierarchy depth.
func e2Joins() {
	header("E2 — query: inheritance evaluation vs repeated membership joins (footnote 1)")
	fmt.Println("| depth | hier eval | baseline (joins) | joins/query | slowdown |")
	fmt.Println("|---|---|---|---|---|")
	for _, depth := range []int{2, 4, 8, 16} {
		h, err := workload.Chain("D", depth, 8)
		check(err)
		r, err := workload.ExceptionChain("R", h, depth)
		check(err)
		mb := workload.MembershipBaseline(h, r)
		depthOf := workload.DepthFunc(h)

		item := core.Item{"leafInstance"}
		hierNs := timeIt(func() {
			if _, err := r.Evaluate(item); err != nil {
				log.Fatal(err)
			}
		})
		var joins int
		baseNs := timeIt(func() {
			_, joins = mb.Holds([]string{"X"}, []string{"leafInstance"}, depthOf)
		})
		fmt.Printf("| %d | %s | %s | %d | %.1f× |\n",
			depth, fmtNs(hierNs), fmtNs(baseNs), joins, baseNs/hierNs)
	}
}

// e3Consolidate: consolidation cost and reduction (§3.3.1).
func e3Consolidate() {
	header("E3 — consolidate: cost and tuple reduction (paper §3.3.1)")
	fmt.Println("| classes | redundant/class | tuples before | tuples after | time (median [q1–q3]) |")
	fmt.Println("|---|---|---|---|---|")
	type e3Row struct {
		Classes     int  `json:"classes"`
		Redundant   int  `json:"redundant_per_class"`
		Before      int  `json:"tuples_before"`
		After       int  `json:"tuples_after"`
		Consolidate dist `json:"consolidate"`
	}
	var rows []e3Row
	for _, p := range []struct{ classes, redundant int }{
		{10, 10}, {20, 20}, {40, 40},
	} {
		h, err := workload.Taxonomy("D", p.classes, p.redundant+1)
		check(err)
		r, err := workload.RedundantRelation("R", h, p.classes, p.redundant)
		check(err)
		row := e3Row{Classes: p.classes, Redundant: p.redundant, Before: r.Len()}
		row.Consolidate = sampleNs(func() { row.After = r.Consolidate().Len() })
		fmt.Printf("| %d | %d | %d | %d | %s |\n", row.Classes, row.Redundant, row.Before, row.After, row.Consolidate)
		rows = append(rows, row)
	}
	emitJSON("E3", struct {
		machine
		Rows []e3Row `json:"rows"`
	}{thisMachine(), rows})
}

// e4Explicate: explication cost scales with the extension (§3.3.2), and the
// two reads built on it — EXTENSION and COUNT BY — cost about the same. The
// relation pairs a taxonomy of classes×fanout instances with four hue
// classes of four hues, one hue class per creature class, like the Likes
// relation of the request-path benchmark.
func e4Explicate() {
	header("E4 — explicate: cost vs extension size (paper §3.3.2)")
	fmt.Println("| classes | fanout | stored tuples | extension | explicate | EXTENSION | COUNT BY (Hue) |")
	fmt.Println("|---|---|---|---|---|---|---|")
	type e4Row struct {
		Classes   int  `json:"classes"`
		Fanout    int  `json:"fanout"`
		Stored    int  `json:"stored_tuples"`
		Extension int  `json:"extension"`
		Explicate dist `json:"explicate"`
		Ext       dist `json:"extension_read"`
		CountBy   dist `json:"count_by"`
	}
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
		row := e4Row{Classes: p.classes, Fanout: p.fanout, Stored: r.Len()}
		row.Explicate = sampleNs(func() {
			flatRel, err := r.Explicate()
			check(err)
			row.Extension = flatRel.Len()
		})
		row.Ext = sampleNs(func() {
			_, err := r.Extension()
			check(err)
		})
		row.CountBy = sampleNs(func() {
			_, err := algebra.Count(r, "Hue")
			check(err)
		})
		fmt.Printf("| %d | %d | %d | %d | %s | %s | %s |\n", row.Classes, row.Fanout, row.Stored, row.Extension,
			row.Explicate, row.Ext, row.CountBy)
		rows = append(rows, row)
	}
	emitJSON("E4", struct {
		machine
		Rows []e4Row `json:"rows"`
	}{thisMachine(), rows})
}

// e5Algebra: operator costs on compact relations (§3.4).
func e5Algebra() {
	header("E5 — algebra: operators on compact relations (paper §3.4)")
	fmt.Println("| tuples/arg | union | intersect | difference | select | result tuples (union) |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, tuples := range []int{5, 10, 20} {
		a, err := workload.RandomConsistent(int64(tuples), "A", 30, tuples)
		check(err)
		b := a.Clone()
		b2, err := workload.RandomConsistent(int64(tuples)+1000, "A", 30, tuples)
		check(err)
		_ = b
		// Arguments must share a schema: reuse a's schema by rebuilding b2
		// over it.
		b = core.NewRelation("B", a.Schema())
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

		var unionLen int
		unionNs := timeIt(func() {
			u, err := algebra.Union("U", a, b)
			if err != nil {
				log.Fatal(err)
			}
			unionLen = u.Len()
		})
		interNs := timeIt(func() {
			if _, err := algebra.Intersect("I", a, b); err != nil {
				log.Fatal(err)
			}
		})
		diffNs := timeIt(func() {
			if _, err := algebra.Difference("D", a, b); err != nil {
				log.Fatal(err)
			}
		})
		class := a.Schema().Attr(0).Domain.Nodes()[1]
		selNs := timeIt(func() {
			if _, err := algebra.Select("S", a, algebra.Condition{Attr: "A0", Class: class}); err != nil {
				log.Fatal(err)
			}
		})
		fmt.Printf("| %d+%d | %s | %s | %s | %s | %d |\n",
			a.Len(), b.Len(), fmtNs(unionNs), fmtNs(interNs), fmtNs(diffNs), fmtNs(selNs), unionLen)
	}
}

// e8Durability: the storage substrate — logged writes, WAL replay and
// snapshot loading.
func e8Durability() {
	header("E8 — durability: WAL writes, replay and snapshot recovery")
	fmt.Println("| facts | logged write | recovery (WAL replay) | recovery (snapshot) |")
	fmt.Println("|---|---|---|---|")
	for _, facts := range []int{100, 400} {
		dir, err := os.MkdirTemp("", "hrbench-*")
		check(err)
		defer os.RemoveAll(dir)
		s, err := storage.Open(dir)
		check(err)
		check(s.CreateHierarchy("D"))
		check(s.AddClass("D", "C"))
		for i := 0; i < facts; i++ {
			check(s.AddInstance("D", fmt.Sprintf("i%05d", i), "C"))
		}
		check(s.CreateRelation("R", catalog.AttrSpec{Name: "X", Domain: "D"}))
		for i := 0; i < facts; i++ {
			check(s.Assert("R", fmt.Sprintf("i%05d", i)))
		}
		// One durable write (assert + retract keeps size stable).
		writeNs := timeIt(func() {
			check(s.Assert("R", "C"))
			check(s.Retract("R", "C"))
		})
		check(s.Close())

		replayNs := timeIt(func() {
			s2, err := storage.Open(dir)
			check(err)
			check(s2.Close())
		})

		// Checkpoint, then measure snapshot-based recovery.
		s3, err := storage.Open(dir)
		check(err)
		check(s3.Checkpoint())
		check(s3.Close())
		snapNs := timeIt(func() {
			s4, err := storage.Open(dir)
			check(err)
			check(s4.Close())
		})
		fmt.Printf("| %d | %s | %s | %s |\n", facts, fmtNs(writeNs), fmtNs(replayNs), fmtNs(snapNs))
	}
}

// e10Run times workers×txsPerWorker transactions against a fresh store and
// returns total wall-clock nanoseconds plus the WAL records staged and
// fsyncs issued while they ran. Each transaction asserts and retracts a
// per-worker tuple, so the database size stays constant and committers
// never conflict.
func e10Run(workers, txsPerWorker int) (ns float64, records, syncs uint64) {
	dir, err := os.MkdirTemp("", "hrbench-e10-*")
	check(err)
	defer os.RemoveAll(dir)
	s, err := storage.Open(dir)
	check(err)
	check(s.CreateHierarchy("D"))
	check(s.AddClass("D", "C"))
	check(s.CreateRelation("R", catalog.AttrSpec{Name: "X", Domain: "D"}))
	for w := 0; w < workers; w++ {
		check(s.AddInstance("D", fmt.Sprintf("w%02d", w), "C"))
	}
	rec0, sync0 := s.LogStats()
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("w%02d", w)
			for i := 0; i < txsPerWorker; i++ {
				check(s.ApplyTx([]catalog.TxOp{
					{Kind: "assert", Relation: "R", Values: []string{name}},
					{Kind: "retract", Relation: "R", Values: []string{name}},
				}))
			}
		}(w)
	}
	wg.Wait()
	ns = float64(time.Since(start).Nanoseconds())
	records, syncs = s.LogStats()
	check(s.Close())
	return ns, records - rec0, syncs - sync0
}

// e10GroupCommit: the crash-safe WAL's group commit — N concurrent
// committers share one fsync per flush instead of paying one each.
func e10GroupCommit() {
	header("E10 — durability: group commit")
	fmt.Println("| committers | txs | per tx | txn/s | records | fsyncs | records/fsync |")
	fmt.Println("|---|---|---|---|---|---|---|")
	const txsPerWorker = 50
	for _, workers := range []int{1, 8} {
		txs := float64(workers * txsPerWorker)
		ns, records, syncs := e10Run(workers, txsPerWorker)
		fmt.Printf("| %d | %.0f | %s | %.0f | %d | %d | %.1f |\n",
			workers, txs, fmtNs(ns/txs), txs/(ns/1e9), records, syncs, float64(records)/float64(syncs))
	}
}

// e9Parallel: the concurrent evaluation engine — worker-pool batch
// evaluation vs a sequential scan, and the verdict cache on repeated reads.
func e9Parallel() {
	header("E9 — parallel batch evaluation and the verdict cache")
	fmt.Printf("GOMAXPROCS = %d\n\n", runtime.GOMAXPROCS(0))
	fmt.Println("| classes | fanout | items | sequential | parallel batch | speedup | cached re-read | vs sequential |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	ctx := context.Background()
	type e9Row struct {
		Classes      int     `json:"classes"`
		Fanout       int     `json:"fanout"`
		Items        int     `json:"items"`
		SequentialNs float64 `json:"sequential_ns"`
		ParallelNs   float64 `json:"parallel_ns"`
		CachedNs     float64 `json:"cached_ns"`
	}
	var rows []e9Row
	// Atom counts stay under the verdict cache's rotation threshold so the
	// cached column measures steady-state hits, not eviction churn.
	for _, p := range []struct{ classes, fanout int }{
		{10, 100}, {20, 100}, {100, 20},
	} {
		h, err := workload.Taxonomy("D", p.classes, p.fanout)
		check(err)
		r, err := workload.ClassRelation("R", h, p.classes)
		check(err)
		atoms, err := r.AtomicItems()
		check(err)

		seqNs := timeIt(func() {
			if _, err := r.EvaluateBatch(ctx, atoms,
				core.WithParallelism(1), core.WithCache(false)); err != nil {
				log.Fatal(err)
			}
		})
		parNs := timeIt(func() {
			if _, err := r.EvaluateBatch(ctx, atoms, core.WithCache(false)); err != nil {
				log.Fatal(err)
			}
		})
		// Warm the cache once, then measure steady-state cached reads.
		if _, err := r.EvaluateBatch(ctx, atoms); err != nil {
			log.Fatal(err)
		}
		hotNs := timeIt(func() {
			if _, err := r.EvaluateBatch(ctx, atoms); err != nil {
				log.Fatal(err)
			}
		})
		fmt.Printf("| %d | %d | %d | %s | %s | %.1f× | %s | %.1f× |\n",
			p.classes, p.fanout, len(atoms), fmtNs(seqNs), fmtNs(parNs), seqNs/parNs,
			fmtNs(hotNs), seqNs/hotNs)
		rows = append(rows, e9Row{
			Classes: p.classes, Fanout: p.fanout, Items: len(atoms),
			SequentialNs: seqNs, ParallelNs: parNs, CachedNs: hotNs,
		})
	}
	emitJSON("E9", struct {
		GOMAXPROCS int     `json:"gomaxprocs"`
		Rows       []e9Row `json:"rows"`
	}{runtime.GOMAXPROCS(0), rows})
}

// e11Replication: the replication subsystem — how long a cold follower
// takes to catch up (snapshot bootstrap + WAL tail) and how quickly a
// steady-state write becomes visible on the replica.
func e11Replication() {
	header("E11 — replication: cold catch-up and write propagation")
	fmt.Println("| preloaded facts | cold catch-up | propagation p50 | propagation max |")
	fmt.Println("|---|---|---|---|")
	for _, facts := range []int{100, 400, 1600} {
		dir, err := os.MkdirTemp("", "hrbench-e11-*")
		check(err)
		defer os.RemoveAll(dir)
		store, err := hrdb.OpenStore(dir)
		check(err)
		primary := hrdb.NewPrimary(store, hrdb.PrimaryOptions{HeartbeatInterval: 10 * time.Millisecond})
		replSrv := hrdb.NewServer(store, hrdb.ServerOptions{Repl: primary})
		check(replSrv.Start("127.0.0.1:0"))

		check(store.CreateHierarchy("D"))
		check(store.AddClass("D", "C"))
		check(store.CreateRelation("R", catalog.AttrSpec{Name: "X", Domain: "D"}))
		for i := 0; i < facts; i++ {
			check(store.AddInstance("D", fmt.Sprintf("i%05d", i), "C"))
			check(store.Assert("R", fmt.Sprintf("i%05d", i)))
		}

		// Cold catch-up: the follower starts with everything already written
		// and must bootstrap from a snapshot, then drain the WAL tail.
		converged := func(rep *hrdb.Replica) time.Duration {
			start := time.Now()
			want := hrdb.Fingerprint(store.Database())
			for hrdb.Fingerprint(rep.Database()) != want {
				if time.Since(start) > 30*time.Second {
					log.Fatal("E11: replica never converged")
				}
				time.Sleep(time.Millisecond)
			}
			return time.Since(start)
		}
		replica := hrdb.NewReplica(replSrv.Addr(), hrdb.ReplicaOptions{
			ReconnectBackoff: 5 * time.Millisecond,
		})
		catchup := converged(replica)

		// Steady-state propagation: one durable write until it is visible in
		// the replica's database.
		lat := make([]time.Duration, 0, 20)
		for i := 0; i < 20; i++ {
			check(store.Assert("R", "C"))
			lat = append(lat, converged(replica))
			check(store.Retract("R", "C"))
			lat = append(lat, converged(replica))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		fmt.Printf("| %d | %s | %s | %s |\n", facts,
			fmtNs(float64(catchup.Nanoseconds())),
			fmtNs(float64(lat[len(lat)/2].Nanoseconds())),
			fmtNs(float64(lat[len(lat)-1].Nanoseconds())))

		check(replica.Close())
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		check(replSrv.Shutdown(ctx))
		cancel()
		check(store.Close())
	}
}

// e12Fixture builds a database whose EXTENSION query is expensive: classes
// classes of fanout instances each, all asserted at the class level, so
// flattening materializes classes×fanout rows.
func e12Fixture(classes, fanout int) *hrdb.Database {
	db := hrdb.NewDatabase()
	sess := hrdb.NewSession(db)
	var b strings.Builder
	b.WriteString("CREATE HIERARCHY D;\n")
	for c := 0; c < classes; c++ {
		fmt.Fprintf(&b, "CLASS C%d IN D;\n", c)
		for i := 0; i < fanout; i++ {
			fmt.Fprintf(&b, "INSTANCE i%d_%d UNDER C%d;\n", c, i, c)
		}
	}
	b.WriteString("CREATE RELATION R (X: D);\n")
	for c := 0; c < classes; c++ {
		fmt.Fprintf(&b, "ASSERT R (C%d);\n", c)
	}
	if _, err := sess.Exec(b.String()); err != nil {
		log.Fatal(err)
	}
	return db
}

// e12Target injects a fixed delay into EXPLICATE, modeling the cold-scan
// cost of flattening a large relation without burning the benchmark box's
// single CPU — what the experiment measures is protocol head-of-line
// blocking, which must not be confounded with scheduler contention.
type e12Target struct {
	hrdb.Target
	delay time.Duration
}

func (t e12Target) ApplyTx(ops []hrdb.TxOp) error {
	if len(ops) == 1 && ops[0].Kind == "explicate" {
		time.Sleep(t.delay)
	}
	return t.Target.ApplyTx(ops)
}

// e12Pipelining drives one client with 64 interleaved callers — one runs
// the slow flattening statement, the other 63 issue point HOLDS probes —
// and reports the probes' latency quantiles. In the in-order lane every
// call shares the slow statement's Stream, so each probe queues behind the
// flattening statement exactly as on an in-order connection; pipelined,
// each call is its own stream and the probes overtake it on the same
// socket.
func e12Pipelining(addr string, lane bool) (slow time.Duration, lat []time.Duration) {
	c, err := hrdb.Dial(addr, hrdb.WithMaxRetries(0))
	check(err)
	defer c.Close()
	ctx := context.Background()
	exec := c.Exec
	if lane {
		st, err := c.Stream()
		check(err)
		defer st.Close()
		exec = st.Exec
	}

	if _, err := exec(ctx, "HOLDS R (i0_0);"); err != nil { // warm the connection
		log.Fatal(err)
	}

	var (
		mu      sync.Mutex
		stop    = make(chan struct{})
		wg      sync.WaitGroup
		probeNs []time.Duration
	)
	slowStart := time.Now()
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		if _, err := exec(ctx, "EXPLICATE R;"); err != nil {
			log.Fatal(err)
		}
	}()
	// Give the flattening statement a head start so every probe measured
	// genuinely contends with it, in the lane or not.
	time.Sleep(10 * time.Millisecond)
	for s := 1; s < 64; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				if _, err := exec(ctx, "HOLDS R (i0_0);"); err != nil {
					log.Fatal(err)
				}
				d := time.Since(t0)
				mu.Lock()
				probeNs = append(probeNs, d)
				mu.Unlock()
			}
		}()
	}
	<-slowDone
	slow = time.Since(slowStart)
	close(stop)
	wg.Wait()
	sort.Slice(probeNs, func(i, j int) bool { return probeNs[i] < probeNs[j] })
	return slow, probeNs
}

// e12Multiplexing: the framed multiplexed wire protocol — fast streams
// overtake a slow one on a shared connection, and per-tenant admission
// quotas shed a flooding tenant without touching its neighbor, verified by
// the tenant-labeled series in a metrics scrape.
func e12Multiplexing() {
	header("E12 — wire protocol: pipelining and tenant isolation")

	db := e12Fixture(10, 100)
	quiet := hrdb.NewDatabase()
	if _, err := hrdb.NewSession(quiet).Exec("CREATE HIERARCHY Q; CLASS C IN Q; INSTANCE q0 UNDER C; CREATE RELATION S (X: Q); ASSERT S (C);"); err != nil {
		log.Fatal(err)
	}
	srv := hrdb.NewServer(e12Target{Target: hrdb.NewMemTarget(db), delay: 150 * time.Millisecond}, hrdb.ServerOptions{
		Workers: 4, QueueDepth: 64, MaxConns: 512,
		Tenants: []hrdb.TenantConfig{
			{Name: "noisy", Limits: hrdb.TenantLimits{MaxInflight: 2, RatePerSec: 50}},
			{Name: "quiet", Target: hrdb.NewMemTarget(quiet)},
		},
	})
	check(srv.Start("127.0.0.1:0"))
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		check(srv.Shutdown(ctx))
	}()

	fmt.Println("64 interleaved callers on one connection; one flattens the relation")
	fmt.Println("(EXPLICATE against a store with 150ms of injected scan latency), 63 issue point probes,")
	fmt.Println("either all in one in-order lane (one Stream) or each on its own stream.")
	fmt.Println()
	fmt.Println("| requests | slow query | probes | probe p50 | probe p99 |")
	fmt.Println("|---|---|---|---|---|")
	type e12Row struct {
		Requests string  `json:"requests"`
		SlowNs   float64 `json:"slow_query_ns"`
		Probes   int     `json:"probes"`
		P50Ns    float64 `json:"probe_p50_ns"`
		P99Ns    float64 `json:"probe_p99_ns"`
	}
	var rows []e12Row
	var p50 [2]time.Duration
	for i, lane := range []bool{true, false} {
		slow, lat := e12Pipelining(srv.Addr(), lane)
		if len(lat) == 0 {
			log.Fatal("E12: no probes completed")
		}
		p50[i] = lat[len(lat)/2]
		name := "pipelined (own streams)"
		if lane {
			name = "in-order lane (one Stream)"
		}
		p99 := lat[len(lat)*99/100]
		fmt.Printf("| %s | %s | %d | %s | %s |\n", name,
			fmtNs(float64(slow.Nanoseconds())), len(lat),
			fmtNs(float64(p50[i].Nanoseconds())),
			fmtNs(float64(p99.Nanoseconds())))
		rows = append(rows, e12Row{
			Requests: name, SlowNs: float64(slow.Nanoseconds()), Probes: len(lat),
			P50Ns: float64(p50[i].Nanoseconds()), P99Ns: float64(p99.Nanoseconds()),
		})
	}
	fmt.Printf("\nprobe p50 improvement, pipelined over the in-order lane: %.1f×\n", float64(p50[0])/float64(p50[1]))

	// Tenant isolation: flood "noisy" past its quota while "quiet" runs a
	// steady probe load; the scrape's labeled series carry the verdict.
	cn, err := hrdb.Dial(srv.Addr(), hrdb.WithTenant("noisy"), hrdb.WithMaxRetries(0))
	check(err)
	defer cn.Close()
	cq, err := hrdb.Dial(srv.Addr(), hrdb.WithTenant("quiet"), hrdb.WithMaxRetries(0))
	check(err)
	defer cq.Close()
	ctx := context.Background()

	quietRun := func(n int) []time.Duration {
		lat := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if _, err := cq.Exec(ctx, "HOLDS S (q0);"); err != nil {
				log.Fatal(err)
			}
			lat = append(lat, time.Since(t0))
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat
	}
	baseline := quietRun(200)

	const floodN = 400
	var floodShed, floodOK int64
	var quietLat []time.Duration
	var wg sync.WaitGroup
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < floodN/8; i++ {
				_, err := cn.Exec(ctx, "SHOW RELATIONS;")
				mu.Lock()
				if errors.Is(err, hrdb.ErrQuotaExceeded) {
					floodShed++
				} else if err == nil {
					floodOK++
				} else {
					log.Fatal(err)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		quietLat = quietRun(200)
	}()
	wg.Wait()

	scrape, err := cq.Stats(ctx)
	check(err)
	metric := func(name string) string {
		for _, line := range strings.Split(scrape, "\n") {
			if strings.HasPrefix(line, name+" ") {
				return strings.TrimSpace(strings.TrimPrefix(line, name))
			}
		}
		return "0"
	}
	fmt.Println()
	fmt.Printf("noisy tenant (max-inflight=2, rate=50/s): %d/%d statements shed with %q\n",
		floodShed, floodN, "quota")
	fmt.Println()
	fmt.Println("| tenant | scrape: requests | scrape: shed | quiet p50 |")
	fmt.Println("|---|---|---|---|")
	fmt.Printf("| noisy | %s | %s | — |\n",
		metric(`hrdb_tenant_requests_total{tenant="noisy"}`),
		metric(`hrdb_tenant_shed_total{tenant="noisy"}`))
	fmt.Printf("| quiet (before flood) | — | — | %s |\n",
		fmtNs(float64(baseline[len(baseline)/2].Nanoseconds())))
	fmt.Printf("| quiet (during flood) | %s | %s | %s |\n",
		metric(`hrdb_tenant_requests_total{tenant="quiet"}`),
		metric(`hrdb_tenant_shed_total{tenant="quiet"}`),
		fmtNs(float64(quietLat[len(quietLat)/2].Nanoseconds())))
	if floodShed == 0 {
		log.Fatal("E12: the flood was never shed — quota enforcement is broken")
	}
	if shed := metric(`hrdb_tenant_shed_total{tenant="quiet"}`); shed != "0" {
		log.Fatalf("E12: quiet tenant shed %s statements during a neighbor's flood", shed)
	}
	emitJSON("E12", struct {
		Pipelining       []e12Row `json:"pipelining"`
		FloodStatements  int      `json:"flood_statements"`
		FloodShed        int64    `json:"flood_shed"`
		QuietP50BeforeNs float64  `json:"quiet_p50_before_ns"`
		QuietP50DuringNs float64  `json:"quiet_p50_during_ns"`
	}{rows, floodN, floodShed,
		float64(baseline[len(baseline)/2].Nanoseconds()),
		float64(quietLat[len(quietLat)/2].Nanoseconds())})
}

// e7Mining: the §4 extension — automatic organization of flat relations.
func e7Mining() {
	header("E7 — mining: mechanical hierarchy discovery (paper §4)")
	fmt.Println("| groups | members | contexts | flat rows | mined tuples | compression | time |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, p := range []struct{ groups, members, contexts int }{
		{5, 10, 4}, {10, 20, 5}, {20, 50, 4},
	} {
		r := workload.ClusteredFlat("R", p.groups, p.members, p.contexts)
		var res *mining.Result
		ns := timeIt(func() {
			var err error
			res, err = mining.Mine(r, 0)
			if err != nil {
				log.Fatal(err)
			}
		})
		fmt.Printf("| %d | %d | %d | %d | %d | %.0f× | %s |\n",
			p.groups, p.members, p.contexts, res.FlatRows, res.StoredTuples,
			res.CompressionRatio(), fmtNs(ns))
	}
}
