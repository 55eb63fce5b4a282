package core

import (
	"context"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hrdb/internal/obs"
)

// This file implements bulk evaluation: a worker pool fanning per-item
// Evaluate calls across cores. Results are always delivered in input order,
// and EvaluateBatch's error is deterministic (the lowest-index failure),
// regardless of goroutine scheduling. The relation must not be mutated
// while a batch call is in flight; the catalog package provides the
// read/write locking for shared use.

// batchConfig holds the resolved options of one bulk-evaluation call.
type batchConfig struct {
	parallelism int
	mode        Preemption
	tracer      obs.Tracer
}

// BatchOption configures a bulk-evaluation call (functional options).
type BatchOption func(*batchConfig)

// WithParallelism sets the number of worker goroutines. Values below 1
// select the default, runtime.GOMAXPROCS(0).
func WithParallelism(n int) BatchOption {
	return func(c *batchConfig) {
		if n >= 1 {
			c.parallelism = n
		}
	}
}

// WithPreemption overrides the relation's preemption mode for this call.
// Kept verdicts are keyed by their mode, so overriding it neither serves
// nor drops the verdicts of another.
func WithPreemption(p Preemption) BatchOption {
	return func(c *batchConfig) { c.mode = p }
}

// WithTracer reports a completed span per bulk-evaluation call to t
// ("core.EvaluateBatch" / "core.EvaluateEach", with the batch size, mode,
// and any error). A nil tracer — the default — costs nothing.
func WithTracer(t obs.Tracer) BatchOption {
	return func(c *batchConfig) { c.tracer = t }
}

// batchConfigFor resolves options against the relation's defaults.
func (r *Relation) batchConfigFor(opts []BatchOption) batchConfig {
	cfg := batchConfig{
		parallelism: runtime.GOMAXPROCS(0),
		mode:        r.mode,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// observeBatch records the per-call batch metrics and, when the call was
// configured with a tracer, emits its span. Batch entry is a cold path, so
// the timing is unconditional (one time.Now/Since pair per call).
func observeBatch(cfg batchConfig, name string, n int, start time.Time, err error) {
	metricBatches.Inc()
	metricBatchSize.Observe(int64(n))
	if cfg.tracer != nil {
		cfg.tracer.Span(obs.Span{
			Name:     name,
			Start:    start,
			Duration: time.Since(start),
			Attrs: []obs.Label{
				{Key: "items", Value: strconv.Itoa(n)},
				{Key: "mode", Value: cfg.mode.String()},
			},
			Err: err,
		})
	}
}

// warmForBatch builds every lazily memoized hierarchy structure once, on the
// calling goroutine, so the workers start from read-only state instead of
// racing to construct it.
func (r *Relation) warmForBatch() {
	for _, a := range r.schema.attrs {
		a.Domain.Warm()
	}
}

// fanOut runs do(i) for i in [0, n) across the given number of workers,
// stopping early when stop returns true. With one worker it runs inline.
//
// The stop check precedes the index claim, so a claimed index ALWAYS runs
// to completion. Combined with the monotone atomic counter this is what
// makes batch errors deterministic: when index i fails, every index below
// i was claimed earlier and therefore fully evaluated, so taking the
// minimum failing index over the completed work yields the same answer as
// a sequential scan.
func fanOut(n, workers int, stop func() bool, do func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && !stop(); i++ {
			do(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}

// EvaluateBatch evaluates every item concurrently and returns the verdicts
// in input order. The first failure — by input index, not by wall clock —
// cancels the remaining work and is returned; partial results are
// discarded. Cancelling ctx aborts the batch with ctx's error.
func (r *Relation) EvaluateBatch(ctx context.Context, items []Item, opts ...BatchOption) (_ []Verdict, retErr error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := r.batchConfigFor(opts)
	n := len(items)
	verdicts := make([]Verdict, n)
	if n == 0 {
		// Same contract as n > 0: a cancelled context yields (nil, err),
		// never both a non-nil slice and a non-nil error.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return verdicts, nil
	}
	start := time.Now()
	defer func() { observeBatch(cfg, "core.EvaluateBatch", n, start, retErr) }()
	r.warmForBatch()

	var (
		mu       sync.Mutex
		firstIdx = n
		firstErr error
		failed   atomic.Bool
	)
	stop := func() bool { return failed.Load() || ctx.Err() != nil }
	fanOut(n, cfg.parallelism, stop, func(i int) {
		v, err := r.evaluate(items[i], cfg.mode)
		if err != nil {
			mu.Lock()
			if i < firstIdx {
				firstIdx, firstErr = i, err
			}
			mu.Unlock()
			failed.Store(true)
			return
		}
		verdicts[i] = v
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		// Deterministic: see fanOut — every index below firstIdx ran to
		// completion, so the minimum above equals the sequential answer.
		return nil, firstErr
	}
	return verdicts, nil
}

// EvaluateEach evaluates every item concurrently, collecting each item's
// verdict and error positionally instead of cancelling on failure. Use it
// when per-item errors are data — e.g. three-valued logic mapping
// ambiguity conflicts to "unknown". The returned error is non-nil only
// when ctx was cancelled before completion.
func (r *Relation) EvaluateEach(ctx context.Context, items []Item, opts ...BatchOption) (_ []Verdict, _ []error, retErr error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := r.batchConfigFor(opts)
	n := len(items)
	verdicts := make([]Verdict, n)
	errs := make([]error, n)
	if n == 0 {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		return verdicts, errs, nil
	}
	start := time.Now()
	defer func() { observeBatch(cfg, "core.EvaluateEach", n, start, retErr) }()
	r.warmForBatch()

	stop := func() bool { return ctx.Err() != nil }
	fanOut(n, cfg.parallelism, stop, func(i int) {
		verdicts[i], errs[i] = r.evaluate(items[i], cfg.mode)
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return verdicts, errs, nil
}

// HoldsBatch is EvaluateBatch reduced to closed-world truth values.
func (r *Relation) HoldsBatch(ctx context.Context, items []Item, opts ...BatchOption) ([]bool, error) {
	vs, err := r.EvaluateBatch(ctx, items, opts...)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(vs))
	for i, v := range vs {
		out[i] = v.Value
	}
	return out, nil
}
