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

// EvaluateBatch evaluates every item in input order and returns the
// verdicts in that order, checking ctx before each item. The first failure
// by input index stops the batch and is returned; partial results are
// discarded. Cancelling ctx aborts the batch with ctx's error.
func (r *Relation) EvaluateBatch(ctx context.Context, items []Item) ([]Verdict, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(items) == 0 {
		// Same contract as a non-empty batch: a cancelled context yields
		// (nil, err), never both a non-nil slice and a non-nil error.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return []Verdict{}, nil
	}
	metricBatches.Inc()
	metricBatchSize.Observe(int64(len(items)))
	r.warmForBatch()
	verdicts := make([]Verdict, len(items))
	for i, item := range items {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		v, err := r.Evaluate(item)
		if err != nil {
			return nil, err
		}
		verdicts[i] = v
	}
	return verdicts, nil
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
