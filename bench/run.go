package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hrdb"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload measured.
type result struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Samples   map[string]int    `json:"samples"` // how many measurements stand behind the timings
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// wrong records a failed check: it counts against the run like a failed
// statement does.
func (r *result) wrong(format string, args ...any) {
	r.Failed++
	if len(r.Notes) < 10 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

// traceEvery is how many statements pass between two replayed ones. A replay
// costs about as much as the statement itself, so cheap statements are
// sampled sparsely to keep the traced window's load close to the plain one.
var traceEvery = map[string]int{"point_read": 16, "analytic_read": 8, "durable_write": 8, "mixed_tail": 16}

// latencies is what is kept of a window's samples once they are released.
type latencies struct {
	n, reads, writes   int
	elapsed            time.Duration
	p50, p99           time.Duration
	readP50, readP99   time.Duration
	writeP50, writeP99 time.Duration
	checkpoint         time.Duration // how long Store.Checkpoint took
	stallMax           time.Duration // slowest write overlapping the checkpoint
}

func summarize(d *driven) latencies {
	var all, reads, writes []time.Duration
	l := latencies{elapsed: d.elapsed, checkpoint: d.checkpoint[1] - d.checkpoint[0]}
	for _, s := range d.samples {
		all = append(all, s.dur)
		if s.class != classWrite {
			reads = append(reads, s.dur)
			continue
		}
		writes = append(writes, s.dur)
		if s.start < d.checkpoint[1] && s.start+s.dur > d.checkpoint[0] && s.dur > l.stallMax {
			l.stallMax = s.dur
		}
	}
	all, reads, writes = sortedDurations(all), sortedDurations(reads), sortedDurations(writes)
	l.n, l.reads, l.writes = len(all), len(reads), len(writes)
	l.p50, l.p99 = quantile(all, 0.5), quantile(all, 0.99)
	l.readP50, l.readP99 = quantile(reads, 0.5), quantile(reads, 0.99)
	l.writeP50, l.writeP99 = quantile(writes, 0.5), quantile(writes, 0.99)
	return l
}

func (l latencies) opsPerSec() float64 { return float64(l.n) / l.elapsed.Seconds() }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// run measures one workload. Without tracing it reports the end-to-end
// metrics over the whole window. With tracing it spends the first quarter of
// the window untraced — the base the tracing overhead is measured against —
// and the rest traced, and reports the per-layer metrics.
func run(cfg *config) (*result, error) {
	res := &result{Workload: cfg.w.name, Trace: cfg.trace, Metrics: map[string]metric{}, Samples: map[string]int{}}
	fx, err := genFixture(cfg.seed, cfg.sz)
	if err != nil {
		return nil, err
	}

	var e *env
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if e != nil {
			e.teardown()
		}
		var took time.Duration
		if e, took, err = setup(cfg, fx); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer func() { e.teardown() }()
	res.set("setup_s", median(setups), "s")

	var tr *tracer
	var plainOps float64
	window := cfg.window
	if cfg.trace {
		fsync, err := fsyncProbe(e.dir, 100)
		if err != nil {
			return nil, err
		}
		res.set("device.fsync_p50_us", us(fsync), "us")
		e.shadow = hrdb.NewDatabase()
		if _, err := hrdb.NewSession(e.shadow).Exec(fx.Script); err != nil {
			return nil, err
		}
		e.probeLayers(res)
		plain := e.drive(window/4, nil)
		res.Attempted, res.Failed = plain.attempted(), plain.failed
		res.Notes = append(res.Notes, plain.errors...)
		e.checkAnswers(res, plain.answers)
		plainOps = summarize(plain).opsPerSec()
		window -= window / 4
		tr = newTracer(traceEvery[cfg.w.name])
	}

	before := e.counters()
	d := e.drive(window, tr)
	after := e.counters()
	if cfg.w.writes {
		if err := e.writeTail(cfg.sz.replayWrites); err != nil {
			res.wrong("after the window: %v", err)
		}
	}
	if e.views != nil {
		e.quiesce(res)
	}

	res.Attempted += d.attempted()
	res.Failed += d.failed
	res.Notes = append(res.Notes, d.errors...)
	lat := summarize(d)
	res.Samples["statements"], res.Samples["reads"], res.Samples["writes"] = lat.n, lat.reads, lat.writes
	res.set("ops_per_s", lat.opsPerSec(), "1/s")
	res.set("p50_us", us(lat.p50), "us")
	res.set("client.p99_us", us(lat.p99), "us")

	e.checkAnswers(res, d.answers)
	var visible, delivered []time.Duration
	if e.views != nil {
		visible = e.checkTail(res)
		if tr != nil {
			delivered = e.delivered(tr)
		}
	}
	lag, queueMax := d.lag, d.queueMax
	e.stopServing()
	d = nil // the samples are the harness's, not the program's
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.set("live_heap_mb", float64(mem.HeapAlloc)/(1<<20), "MiB")

	// Close → reopen → first read over the same files: the snapshot of the
	// post-window checkpoint plus the log writeTail left behind it. Five
	// times when that is quick, once when one replay is long enough to be
	// steady.
	want := hrdb.Fingerprint(e.store.Database())
	var reopens []float64
	var replayed uint64
	for i, total := 0, time.Duration(0); i < 5 && total < time.Second/2; i++ {
		took, n, err := e.reopen()
		if err != nil {
			return nil, err
		}
		reopens, replayed, total = append(reopens, took.Seconds()), n, total+took
		if got := hrdb.Fingerprint(e.store.Database()); got != want {
			res.wrong("reopen %d: fingerprint %s, want %s", i, got, want)
		}
	}
	e.checkAcked(res)
	res.set("client.reopen_s", median(reopens), "s")
	if !cfg.trace {
		return res, nil
	}

	// Per-layer metrics: the traced window's spans and counter deltas.
	if err := tr.write(filepath.Join(cfg.out, "trace_"+cfg.w.name+".json")); err != nil {
		return nil, err
	}
	res.Samples["spans"], res.Samples["replayed"] = len(tr.spans), int(tr.reqs.Load())
	nOps, nReads, nWrites := float64(lat.n), float64(lat.reads), float64(lat.writes)
	// A counter's series differ by label; a layer's count is their sum.
	counter := func(name string) float64 {
		var n uint64
		for id, v := range after.obs.Counters {
			if id == name || strings.HasPrefix(id, name+"{") {
				n += v - before.obs.Counters[id]
			}
		}
		return float64(n)
	}
	dur := tr.durations()
	med := func(name string) float64 { return us(medianOf(dur[name])) }

	res.set("trace.overhead_share", 1-ratio(lat.opsPerSec(), plainOps), "ratio")
	res.set("server.self_us", us(medianOf(tr.paired("server.exec", "hql.session"))), "us")
	res.set("server.queue_depth_max", float64(queueMax), "count")
	res.set("server.shed", counter("hrdb_server_shed_total"), "count")
	res.set("hql.parse_us", med("hql.parse"), "us")
	// A write cannot be run twice, so its in-process figure is the probe
	// write's whole Session.ExecContext (its parse is ~1% of that).
	if exec := tr.paired("hql.session", "hql.parse"); len(exec) > 0 {
		res.set("hql.exec_us", us(medianOf(exec)), "us")
	} else {
		res.set("hql.exec_us", med("hql.write"), "us")
	}
	res.set("algebra.plan_us", med("algebra.plan"), "us")
	res.set("algebra.select_us", med("algebra.select"), "us")
	res.set("algebra.probe_share", ratio(float64(tr.probes), float64(tr.plans)), "ratio")
	res.set("core.evaluate_cold_us", med("core.evaluate_cold"), "us")
	res.set("core.evaluate_warm_us", med("core.evaluate_warm"), "us")
	res.set("core.evals_per_read", ratio(counter("hrdb_core_evals_total"), nReads), "count")
	hits, misses := counter("hrdb_core_cache_hits_total"), counter("hrdb_core_cache_misses_total")
	res.set("core.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	res.set("core.cache_evictions", counter("hrdb_core_cache_evictions_total"), "count")
	res.set("catalog.apply_us", med("catalog.apply"), "us")
	res.set("storage.applytx_us", med("storage.applytx"), "us")
	res.set("storage.sync_wait_us", us(medianOf(tr.paired("storage.applytx", "catalog.apply_probe"))), "us")
	records, syncs := float64(after.records-before.records), float64(after.syncs-before.syncs)
	res.set("storage.wal_records", records, "count")
	res.set("storage.wal_bytes", counter("hrdb_storage_wal_bytes_total"), "B")
	res.set("storage.fsyncs", syncs, "count")
	res.set("storage.records_per_fsync", ratio(records, syncs), "count")
	res.set("storage.checkpoint_ms", ms(lat.checkpoint), "ms")
	res.set("storage.checkpoint_stall_max_us", us(lat.stallMax), "us")
	res.set("storage.replay_records_per_s", ratio(float64(replayed), median(reopens)), "1/s")
	res.set("view.catchup_us", med("view.catchup"), "us")
	deltas, recomputes := counter("hrdb_view_deltas_applied"), counter("hrdb_view_recomputes")
	res.set("view.delta_share", ratio(deltas, deltas+recomputes), "ratio")
	res.set("view.recomputes", recomputes, "count")
	res.set("subwire.deliver_us", us(medianOf(delivered)), "us")
	res.set("repl.shipped_bytes_per_write", ratio(counter("hrdb_repl_shipped_bytes_total"), nWrites), "B")
	res.set("repl.applied_records", counter("hrdb_repl_applied_records_total"), "count")
	res.set("proc.allocs_per_op", ratio(float64(after.mem.Mallocs-before.mem.Mallocs), nOps), "count")
	res.set("proc.cpu_us_per_op", ratio(us(after.cpu-before.cpu), nOps), "us")
	res.set("proc.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, "ms")

	// Client-seen figures that are undefined on some workload are reported
	// beside the layers under "client.", with p99_us and reopen_s (set above).
	res.set("client.read_p50_us", us(lat.readP50), "us")
	res.set("client.read_p99_us", us(lat.readP99), "us")
	res.set("client.write_p50_us", us(lat.writeP50), "us")
	res.set("client.write_p99_us", us(lat.writeP99), "us")
	res.set("client.wal_bytes_per_write", ratio(counter("hrdb_storage_wal_bytes_total"), nWrites), "B")
	visible = sortedDurations(visible)
	res.Samples["feed_deltas"], res.Samples["replica_acks"] = len(visible), len(lag)
	res.set("client.feed_visible_p50_us", us(quantile(visible, 0.5)), "us")
	res.set("client.feed_visible_p99_us", us(quantile(visible, 0.99)), "us")
	res.set("client.replica_visible_p50_us", us(medianOf(lag)), "us")
	res.set("client.failed_share", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	return res, nil
}

// quiesce drains the asynchronous tail after the clients stop: a marker
// write that is sure to flip a view row goes through the front door, then
// its retraction, and the run waits until the views, the feed and the
// replica have seen both.
func (e *env) quiesce(res *result) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	probe := e.fx.probe[0]
	holds, err := e.store.Database().Holds("Flies", probe)
	if err != nil {
		res.wrong("quiesce: %v", err)
		return
	}
	for _, text := range []string{batchText(tuple(!holds, "Flies", probe)), batchText(retract("Flies", probe))} {
		t0 := time.Now()
		if _, err := e.clients[0].Exec(ctx, text); err != nil {
			res.wrong("quiesce: %s: %v", text, err)
			return
		}
		if err := e.views.Wait(ctx); err != nil {
			res.wrong("quiesce: views: %v", err)
			return
		}
		if err := e.feed.await(ctx, "("+probe+")", t0); err != nil {
			res.wrong("quiesce: %v", err)
			return
		}
	}
	if err := e.replicaCaughtUp(ctx); err != nil {
		res.wrong("quiesce: %v", err)
	}
}
