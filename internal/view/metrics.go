package view

import "hrdb/internal/obs"

// View-maintenance metrics, on the obs default registry. Process-wide,
// matching the server metric idiom.
var (
	// metricDeltas counts committed batches folded incrementally into a
	// view (the O(delta) path).
	metricDeltas = obs.Default().Counter("hrdb_view_deltas_applied")
	// metricDeltaAtoms observes how many items a folded batch re-evaluated:
	// atoms of an extension or count view, tuples of a select view.
	metricDeltaAtoms = obs.Default().Histogram("hrdb_view_delta_atoms")
	// metricRecomputes counts full from-scratch recomputations: hierarchy
	// mutations, whole-relation rewrites (CONSOLIDATE/EXPLICATE/SET MODE),
	// source drops/creates, select views over preference edges, delta-cap
	// overflows, and WAL resyncs.
	metricRecomputes = obs.Default().Counter("hrdb_view_recomputes")
	// metricLagNS observes the duration of each maintenance pass: the time
	// from picking a committed batch off the WAL tail to all views having
	// folded it.
	metricLagNS = obs.Default().Histogram("hrdb_view_lag_ns")
	// metricRows tracks the total row count across registered views.
	metricRows = obs.Default().Gauge("hrdb_view_rows")
)
