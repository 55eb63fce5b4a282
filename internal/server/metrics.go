package server

import "hrdb/internal/obs"

// Server metrics, registered on the obs default registry. Process-wide:
// every Server in the process feeds the same series. The request path
// already pays for socket reads and queue hops, so per-request timing is
// unconditional.
var (
	metricActiveConns = obs.Default().Gauge("hrdb_server_active_conns")
	metricQueueDepth  = obs.Default().Gauge("hrdb_server_queue_depth")

	metricRequests = obs.Default().Counter("hrdb_server_requests_total")
	// metricShed counts EXEC requests shed by a full admission queue;
	// metricConnRefused counts whole connections refused at MaxConns.
	metricShed        = obs.Default().Counter("hrdb_server_shed_total")
	metricConnRefused = obs.Default().Counter("hrdb_server_overloaded_conns_total")
	metricDeadline    = obs.Default().Counter("hrdb_server_deadline_total")
	metricPanics      = obs.Default().Counter("hrdb_server_panics_total")

	metricRequestNS = obs.Default().Histogram("hrdb_server_request_duration_ns")

	// Replication front-end: active REPL streams and served SNAP bootstraps
	// (the shipping-side byte/lag series live in internal/repl).
	metricReplStreams   = obs.Default().Gauge("hrdb_server_repl_streams_active")
	metricReplSnapshots = obs.Default().Counter("hrdb_server_repl_snapshots_served_total")

	// Subscription front-end: live SUBSCRIBE feeds and feeds ever started
	// (the per-frame delta/lag series live in internal/view).
	metricSubStreams = obs.Default().Gauge("hrdb_server_subscribe_streams_active")
	metricSubStarted = obs.Default().Counter("hrdb_server_subscribe_streams_total")

	// Lag-bounded read routing (Router): reads served by a replica vs
	// reads that fell back to the primary.
	metricReplicaServed   = obs.Default().Counter("hrdb_router_replica_served_total")
	metricPrimaryFallback = obs.Default().Counter("hrdb_router_primary_fallback_total")
	// metricRouterFailovers counts primary re-routes: the router learned its
	// primary was deposed (or unreachable under retry-all) and adopted a
	// promoted replica in its place.
	metricRouterFailovers = obs.Default().Counter("hrdb_router_failovers_total")
)
