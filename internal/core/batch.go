package core

import "context"

// This file implements bulk evaluation: one binding rule over one relation
// state, applied to each item in input order on the calling goroutine,
// under the relation's own preemption mode (another mode is SetMode on a
// Clone).
// EvaluateBatch's error is the lowest-index failure, because the loop meets
// it first. The relation must not be mutated while a batch call is in
// flight; the catalog package provides the read/write locking for shared
// use. Parallelism comes from concurrent statements, or from a caller's own
// goroutines over a relation that is safe for concurrent reads.

// warmForBatch builds each column's memoized hierarchy structures now. A
// batch is a burst of subsumption queries, so its first items would
// otherwise walk the graph until the reachability index is built on demand
// (after nodes+16 queries); warming builds it before the first one.
func (r *Relation) warmForBatch() {
	for _, a := range r.schema.attrs {
		a.Domain.Warm()
	}
}

// evaluateAll is the loop EvaluateBatch and EvaluateEach share. It
// evaluates items in input order, checking ctx before each one, and stops
// at the first failure unless errs is given, in which case it records each
// item's error there and goes on. It returns the first error met: ctx's,
// or the lowest-index item's.
func (r *Relation) evaluateAll(ctx context.Context, items []Item, verdicts []Verdict, errs []error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(items) == 0 {
		// Same contract as a non-empty batch: a cancelled context yields
		// (nil, err), never both a non-nil slice and a non-nil error.
		return ctx.Err()
	}
	metricBatches.Inc()
	metricBatchSize.Observe(int64(len(items)))
	r.warmForBatch()
	for i, item := range items {
		if err := ctx.Err(); err != nil {
			return err
		}
		v, err := r.evaluate(item)
		if err != nil && errs == nil {
			return err
		}
		if errs != nil {
			errs[i] = err
		}
		verdicts[i] = v
	}
	return nil
}

// EvaluateBatch evaluates every item and returns the verdicts in input
// order. The first failure by input index stops the batch and is returned;
// partial results are discarded. Cancelling ctx aborts the batch with
// ctx's error.
func (r *Relation) EvaluateBatch(ctx context.Context, items []Item) ([]Verdict, error) {
	verdicts := make([]Verdict, len(items))
	if err := r.evaluateAll(ctx, items, verdicts, nil); err != nil {
		return nil, err
	}
	return verdicts, nil
}

// EvaluateEach evaluates every item, collecting each item's verdict and
// error positionally instead of stopping on failure. Use it when per-item
// errors are data — e.g. three-valued logic mapping ambiguity conflicts to
// "unknown". The returned error is non-nil only when ctx was cancelled
// before completion.
func (r *Relation) EvaluateEach(ctx context.Context, items []Item) ([]Verdict, []error, error) {
	verdicts, errs := make([]Verdict, len(items)), make([]error, len(items))
	if err := r.evaluateAll(ctx, items, verdicts, errs); err != nil {
		return nil, nil, err
	}
	return verdicts, errs, nil
}

// HoldsBatch is EvaluateBatch reduced to closed-world truth values.
func (r *Relation) HoldsBatch(ctx context.Context, items []Item) ([]bool, error) {
	vs, err := r.EvaluateBatch(ctx, items)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(vs))
	for i, v := range vs {
		out[i] = v.Value
	}
	return out, nil
}
