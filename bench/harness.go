package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"hrdb"
	"hrdb/internal/storage"
)

// config is one run: a workload at a seed, measured for a fixed time.
type config struct {
	w       *workload
	seed    int64
	window  time.Duration
	trace   bool
	sz      sizes
	out     string // directory for data dirs, traces and result files
	clients int
	setups  int // set-up is repeated this many times; the median is reported
}

// env is everything set-up builds: the durable store, the server in front of
// it, the connected clients with their streams, and — for a workload with
// views — the view manager, one subscriber and one replica.
type env struct {
	cfg     *config
	fx      *fixture
	oracle  *hrdb.Database // the fixture in memory, never written: what answers are checked against
	dir     string
	store   *hrdb.Store
	views   *hrdb.ViewManager
	target  hrdb.Target
	srv     *hrdb.Server
	replSrv *hrdb.Server
	primary *hrdb.Primary
	replica *hrdb.Replica
	clients []*hrdb.Client
	streams [][]stmt
	pos     []int // next statement per client
	feed    *feed
	shadow  *hrdb.Database // traced runs only: a second in-memory fixture for replaying mutations
}

// sample is one answered statement.
type sample struct {
	class string
	start time.Duration // since the window opened
	dur   time.Duration
}

// answer is a statement and what the server said, kept for checking after
// the window closes.
type answer struct{ text, out string }

// driven is what one closed-loop window produced.
type driven struct {
	samples    []sample
	answers    []answer
	errors     []string // the first few failed statements, for the report
	failed     int
	elapsed    time.Duration
	checkpoint [2]time.Duration // the checkpoint's start and end within the window
	lag        []time.Duration  // replica-visible delays of sampled writes
	queueMax   int64
}

func (d *driven) attempted() int { return len(d.samples) + d.failed }

// setup builds a fresh environment and reports how long that took: fixture
// load, store creation, server start, client dial and the untimed warm-up
// share of every stream.
func setup(cfg *config, fx *fixture) (*env, time.Duration, error) {
	t0 := time.Now()
	e := &env{cfg: cfg, fx: fx, pos: make([]int, cfg.clients)}
	ok := false
	defer func() {
		if !ok {
			e.teardown()
		}
	}()

	e.oracle = hrdb.NewDatabase()
	if _, err := hrdb.NewSession(e.oracle).Exec(fx.Script); err != nil {
		return nil, 0, fmt.Errorf("setup: load fixture: %w", err)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(cfg.out, "data-")
	if err != nil {
		return nil, 0, err
	}
	e.dir = dir
	// The store starts from a snapshot of the fixture, as a promoted
	// replica's does; loading 4,000 hierarchy nodes through the WAL would
	// spend the set-up on one fsync each.
	e.store, err = storage.Create(filepath.Join(dir, "store"), storage.SnapshotDatabase(e.oracle), storage.Options{})
	if err != nil {
		return nil, 0, fmt.Errorf("setup: create store: %w", err)
	}
	e.target = e.store
	opts := hrdb.ServerOptions{Workers: cfg.clients}
	if cfg.w.views {
		e.views, err = hrdb.OpenViews(e.store, hrdb.ViewOptions{Dir: dir})
		if err != nil {
			return nil, 0, fmt.Errorf("setup: open views: %w", err)
		}
		e.target = hrdb.NewViewTarget(e.store, e.views)
		opts.Subscribe = e.views
		e.primary = hrdb.NewPrimary(e.store, hrdb.PrimaryOptions{})
		e.replSrv = hrdb.NewServer(e.store, hrdb.ServerOptions{Repl: e.primary})
		if err := e.replSrv.Start("127.0.0.1:0"); err != nil {
			return nil, 0, fmt.Errorf("setup: replication listener: %w", err)
		}
		e.replica = hrdb.NewReplica(e.replSrv.Addr(), hrdb.ReplicaOptions{})
	}
	e.srv = hrdb.NewServer(e.target, opts)
	if err := e.srv.Start("127.0.0.1:0"); err != nil {
		return nil, 0, fmt.Errorf("setup: listen: %w", err)
	}
	for c := 0; c < cfg.clients; c++ {
		cl, err := hrdb.Dial(e.srv.Addr(), hrdb.WithProtocol(hrdb.ProtocolV2), hrdb.WithMaxRetries(0))
		if err != nil {
			return nil, 0, fmt.Errorf("setup: dial: %w", err)
		}
		e.clients = append(e.clients, cl)
		e.streams = append(e.streams, genStream(fx, cfg.w, cfg.seed, c, cfg.sz))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if cfg.w.views {
		sel := fmt.Sprintf("CREATE MATERIALIZED VIEW FliesFlat AS EXTENSION Flies; "+
			"CREATE MATERIALIZED VIEW FliesSel AS SELECT FROM Flies WHERE Creature UNDER %s;", fx.classes[0][len(fx.classes[0])-1])
		if _, err := e.clients[0].Exec(ctx, sel); err != nil {
			return nil, 0, fmt.Errorf("setup: create views: %w", err)
		}
		if e.feed, err = openFeed(ctx, e.clients[0], "FliesFlat"); err != nil {
			return nil, 0, fmt.Errorf("setup: subscribe: %w", err)
		}
		if err := e.replicaCaughtUp(ctx); err != nil {
			return nil, 0, err
		}
	}

	// Warm-up: caches fill and lazy indexes build before the clock starts.
	err = e.eachClient(func(c int) error {
		for n := len(e.streams[c]) * cfg.sz.warmupPct / 100; e.pos[c] < n; e.pos[c]++ {
			if _, err := e.clients[c].Exec(ctx, e.streams[c][e.pos[c]].Text); err != nil {
				return fmt.Errorf("setup: warm-up %q: %w", e.streams[c][e.pos[c]].Text, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	ok = true
	return e, time.Since(t0), nil
}

func (e *env) replicaCaughtUp(ctx context.Context) error {
	for hrdb.Fingerprint(e.replica.Database()) != hrdb.Fingerprint(e.store.Database()) {
		select {
		case <-ctx.Done():
			return fmt.Errorf("replica never converged with the primary")
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil
}

// stopServing stops everything in front of and beside the store: the feed,
// the clients, the servers, the replica and the view manager. Safe to call
// twice and on a partly built env.
func (e *env) stopServing() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if e.feed != nil {
		e.feed.close()
	}
	for _, c := range e.clients {
		c.Close()
	}
	if e.srv != nil {
		e.srv.Shutdown(ctx)
	}
	if e.replica != nil {
		e.replica.Close()
	}
	if e.replSrv != nil {
		e.replSrv.Shutdown(ctx)
	}
	if e.views != nil {
		e.views.Close()
	}
	e.feed, e.clients, e.srv, e.replica, e.replSrv, e.views = nil, nil, nil, nil, nil, nil
}

// teardown stops the servers, closes the store and removes its files.
func (e *env) teardown() {
	e.stopServing()
	if e.store != nil {
		e.store.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// counters is the process-wide state read before and after a window.
type counters struct {
	obs     hrdb.MetricsSnapshot
	mem     runtime.MemStats
	cpu     time.Duration
	records uint64
	syncs   uint64
}

func (e *env) counters() counters {
	var c counters
	c.obs = hrdb.Metrics()
	runtime.ReadMemStats(&c.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	c.records, c.syncs = e.store.LogStats()
	return c
}

// drive runs the closed loop for the window: every client sends its next
// statement as soon as the previous one is answered. With a tracer, sampled
// statements are also replayed hop by hop (trace.go).
func (e *env) drive(window time.Duration, tr *tracer) *driven {
	cfg := e.cfg
	per := make([]driven, cfg.clients)
	out := &driven{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	deadline := start.Add(window)

	var side sync.WaitGroup
	if cfg.w.name == "durable_write" {
		// One checkpoint, half-way: the background work a write-heavy
		// store cannot avoid, caught inside the window.
		side.Add(1)
		go func() {
			defer side.Done()
			select {
			case <-ctx.Done():
				return
			case <-time.After(window / 2):
			}
			t0 := time.Since(start)
			if err := e.store.Checkpoint(); err != nil {
				out.errors = append(out.errors, "checkpoint: "+err.Error())
				out.failed++
			}
			out.checkpoint = [2]time.Duration{t0, time.Since(start)}
		}()
	}
	var lag *replicaLag
	if e.replica != nil {
		lag = newReplicaLag(e)
		side.Add(1)
		go func() { defer side.Done(); lag.run(ctx) }()
	}
	if tr != nil {
		side.Add(1)
		go func() {
			defer side.Done()
			for {
				if q := hrdb.Metrics().Gauges["hrdb_server_queue_depth"]; q > out.queueMax {
					out.queueMax = q
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for c := range e.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, stream, d := e.clients[c], e.streams[c], &per[c]
			var rp *replayer
			seen := map[string]int{} // statements per class, for sampling
			if tr != nil {
				rp = newReplayer(e, tr, c)
				defer rp.done()
			}
			for n := 0; ; n++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				s := stream[e.pos[c]%len(stream)]
				e.pos[c]++
				if s.Row != "" && e.feed != nil {
					e.feed.submitted(s.Row, t0)
				}
				reply, err := cl.Exec(ctx, s.Text)
				t1 := time.Now()
				if err != nil {
					d.failed++
					if len(d.errors) < 3 {
						d.errors = append(d.errors, s.Text+" "+err.Error())
					}
					continue
				}
				d.samples = append(d.samples, sample{class: s.Class, start: t0.Sub(start), dur: t1.Sub(t0)})
				if s.Class == classWrite && lag != nil && n%5 == 0 {
					lag.watch(t1)
				}
				if cfg.w.checkReads && n%50 == 0 {
					d.answers = append(d.answers, answer{s.Text, reply})
				}
				if rp != nil {
					// Every Nth statement of each class, the first
					// included, so a rare class is traced too.
					if seen[s.Class]%tr.every == 0 {
						rp.replay(s, t0, t1)
					}
					seen[s.Class]++
				}
			}
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	cancel()
	side.Wait()
	if lag != nil {
		out.lag = lag.seen
	}
	for c := range per {
		out.samples = append(out.samples, per[c].samples...)
		out.answers = append(out.answers, per[c].answers...)
		out.errors = append(out.errors, per[c].errors...)
		out.failed += per[c].failed
	}
	return out
}

// writeTail checkpoints the store and then has every client send its next
// write statements, n over all clients, skipping reads. It is not timed: it
// leaves a log of known length behind the checkpoint, so that every reopen
// replays the same amount of work whatever the window's throughput was.
func (e *env) writeTail(n int) error {
	if err := e.store.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return e.eachClient(func(c int) error {
		stream := e.streams[c]
		for sent := 0; sent < n/len(e.clients); e.pos[c]++ {
			s := stream[e.pos[c]%len(stream)]
			if s.Class != classWrite {
				continue
			}
			if _, err := e.clients[c].Exec(ctx, s.Text); err != nil {
				e.pos[c]++
				return fmt.Errorf("%s: %w", s.Text, err)
			}
			sent++
		}
		return nil
	})
}

// eachClient runs fn once per client, concurrently, and returns the first
// error.
func (e *env) eachClient(fn func(c int) error) error {
	errs := make(chan error, len(e.clients))
	var wg sync.WaitGroup
	for c := range e.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if err := fn(c); err != nil {
				errs <- err
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// replicaLag measures, for sampled writes, how long after the acknowledgement
// the replica has acknowledged the store position the write reached.
type replicaLag struct {
	e    *env
	reqs chan lagReq
	seen []time.Duration
}

type lagReq struct {
	ack    time.Time
	epoch  uint64
	offset int64
}

func newReplicaLag(e *env) *replicaLag {
	return &replicaLag{e: e, reqs: make(chan lagReq, 64)}
}

// watch queues a just-acknowledged write for the sampler. Clients must never
// wait for it: a full queue drops the sample instead.
func (l *replicaLag) watch(ack time.Time) {
	ep, off := l.e.store.Position()
	select {
	case l.reqs <- lagReq{ack, ep, off}:
	default:
	}
}

func (l *replicaLag) run(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case r := <-l.reqs:
			for {
				ep, off := l.e.primary.AckedPosition()
				if ep > r.epoch || (ep == r.epoch && off >= r.offset) {
					l.seen = append(l.seen, time.Since(r.ack))
					break
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(200 * time.Microsecond):
				}
			}
		}
	}
}

// reopen closes the store and opens it again from its files, timing
// Close → Open → first HOLDS answered, and returns the reopened store.
func (e *env) reopen() (time.Duration, uint64, error) {
	before := hrdb.Metrics().Counters["hrdb_storage_replay_records_total"]
	dir := e.store.Dir()
	t0 := time.Now()
	if err := e.store.Close(); err != nil {
		return 0, 0, fmt.Errorf("close store: %w", err)
	}
	st, err := hrdb.OpenStore(dir)
	if err != nil {
		e.store = nil
		return 0, 0, fmt.Errorf("reopen store: %w", err)
	}
	e.store = st
	if _, err := hrdb.NewStoreSession(st).Exec(fmt.Sprintf("HOLDS Flies (%s);", e.fx.probe[0])); err != nil {
		return 0, 0, fmt.Errorf("first read after reopen: %w", err)
	}
	d := time.Since(t0)
	return d, hrdb.Metrics().Counters["hrdb_storage_replay_records_total"] - before, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile returns the q-quantile of sorted durations.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1)+0.5)]
}

func sortedDurations(d []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), d...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
