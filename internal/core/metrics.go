package core

import "hrdb/internal/obs"

// Engine metrics, registered on the obs default registry. They are
// process-wide: every relation in the process feeds the same series.
//
// Two hot paths are instrumented indirectly to keep their cost invisible:
//
//   - Cache hit/miss counters are flushed from the relation table's
//     per-kind counters in blocks of cacheFlushBlock lookups, under the
//     mutex the lookup already holds — the global atomics are touched once
//     per block, not once per lookup. Verdicts feed hrdb_core_cache_*,
//     answers hrdb_core_answer_*.
//   - Per-mode evaluation latency is sampled 1 in evalSampleMask+1: the
//     always-on evaluation counter's post-increment value decides whether
//     this call pays for the time.Now/Since pair.
var (
	metricCacheHits      = obs.Default().Counter("hrdb_core_cache_hits_total")
	metricCacheMisses    = obs.Default().Counter("hrdb_core_cache_misses_total")
	metricCacheEvictions = obs.Default().Counter("hrdb_core_cache_evictions_total")
	metricAnswerHits     = obs.Default().Counter("hrdb_core_answer_hits_total")
	metricAnswerMisses   = obs.Default().Counter("hrdb_core_answer_misses_total")
	metricConflicts      = obs.Default().Counter("hrdb_core_conflicts_total")
	metricBatches        = obs.Default().Counter("hrdb_core_batches_total")
	metricBatchSize      = obs.Default().Histogram("hrdb_core_batch_size")

	// One count per run of the consistency checker, by whether it was
	// handed every tuple or only those overlapping a write; the histogram
	// is how many tuples it was handed.
	metricChecksFull      = obs.Default().Counter("hrdb_core_consistency_checks_total", obs.Label{Key: "scope", Value: "full"})
	metricChecksDelta     = obs.Default().Counter("hrdb_core_consistency_checks_total", obs.Label{Key: "scope", Value: "delta"})
	metricCheckCandidates = obs.Default().Histogram("hrdb_core_consistency_candidates")

	metricEvals  [3]*obs.Counter
	metricEvalNS [3]*obs.Histogram
)

// cacheFlushBlock is how many lookups of one kind are batched between
// flushes of the table's hit/miss counters into the global ones. Must be a
// power of two.
const cacheFlushBlock = 64

// evalSampleMask samples evaluation latency 1 in (evalSampleMask + 1)
// uncached evaluations. Must be a power of two minus one.
const evalSampleMask = 7

func init() {
	for i, m := range []Preemption{OffPath, OnPath, NoPreemption} {
		label := obs.Label{Key: "mode", Value: m.String()}
		metricEvals[i] = obs.Default().Counter("hrdb_core_evals_total", label)
		metricEvalNS[i] = obs.Default().Histogram("hrdb_core_eval_duration_ns", label)
	}
}

// modeIndex maps a preemption mode to its metric slot (unknown modes share
// slot 0; they fail validation before reaching the evaluator proper).
func modeIndex(mode Preemption) int {
	if mode < OffPath || mode > NoPreemption {
		return 0
	}
	return int(mode)
}
