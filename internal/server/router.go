package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"hrdb/internal/hql"
	"hrdb/internal/wire"
)

// Router is a lag-bounded read/write splitter over one primary and any
// number of read replicas. Scripts that hql.ReadOnlyScript classifies as
// read-only are routed to a replica whose reported staleness is within the
// configured bound (round-robin over eligible replicas); everything else —
// mutations, transactions, unparseable input — goes to the primary, as do
// reads when no replica is fresh enough or every eligible replica fails at
// the transport level.
//
// Freshness comes from the replicas' LAG answers, cached per replica for a
// short interval so routing doesn't pay a round trip per request. The
// classification predicate is compile-time exhaustive (every statement
// kind declares itself), so a newly added statement can't silently start
// routing writes to replicas.
//
// The primary is not fixed: when a write is answered with a "stale" error —
// the node was fenced by a newer primary, so the write definitively did not
// execute — the router probes its replicas for whoever reports itself
// promoted under the highest term, adopts it as the primary, and retries
// once. Writes failing at the transport level re-route the same way only
// under WithRetryAll, mirroring the Client's own retry policy: without it a
// vanished connection leaves "did it commit?" unanswered, and re-routing
// would risk a duplicate.
type Router struct {
	maxStale time.Duration
	probeTTL time.Duration
	retryAll bool

	mu       sync.Mutex
	primary  *Client
	replicas []*Client
	next     int       // round-robin cursor
	lag      []LagInfo // last probe result per replica
	lagAt    []time.Time
}

// WithMaxStaleness sets the freshness bound: a replica is eligible for a
// read only if its reported staleness is known and at most d. Default
// 500ms. Replicas that have never synced report unknown staleness and are
// never eligible. Router-only; plain Dial ignores it.
func WithMaxStaleness(d time.Duration) Option {
	return func(o *dialConfig) { o.maxStale = d }
}

// WithLagProbeInterval sets how long a replica's LAG answer is cached
// before the next probe. Default 100ms; zero probes on every read.
// Router-only; plain Dial ignores it.
func WithLagProbeInterval(d time.Duration) Option {
	return func(o *dialConfig) { o.probeTTL = d }
}

// DialRouter connects to the primary and each replica, passing the same
// options (retry policy, tenant, protocol, …) to every connection. The
// primary connection is established eagerly (as Dial does); replica
// connections are too, but a replica that cannot be reached at dial time
// is an error — topology mistakes should surface at startup, not as
// silent primary-only routing.
func DialRouter(primaryAddr string, replicaAddrs []string, opts ...Option) (*Router, error) {
	cfg := defaultDialConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	primary, err := Dial(primaryAddr, opts...)
	if err != nil {
		return nil, err
	}
	r := &Router{
		primary:  primary,
		maxStale: cfg.maxStale,
		probeTTL: cfg.probeTTL,
		retryAll: cfg.retryAll,
		lag:      make([]LagInfo, len(replicaAddrs)),
		lagAt:    make([]time.Time, len(replicaAddrs)),
	}
	for _, addr := range replicaAddrs {
		rc, err := Dial(addr, opts...)
		if err != nil {
			r.Close()
			return nil, err
		}
		r.replicas = append(r.replicas, rc)
	}
	return r, nil
}

// Close closes every connection.
func (r *Router) Close() error {
	r.mu.Lock()
	primary, replicas := r.primary, append([]*Client(nil), r.replicas...)
	r.mu.Unlock()
	err := primary.Close()
	for _, rc := range replicas {
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// PrimaryAddr returns the address currently treated as primary (it changes
// after a failover re-route).
func (r *Router) PrimaryAddr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.primary.addr
}

// replicaSet snapshots the replica list (failover swaps mutate it).
func (r *Router) replicaSet() []*Client {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Client(nil), r.replicas...)
}

// Exec routes one script: read-only scripts to a fresh-enough replica,
// everything else to the current primary (with failover re-routing).
func (r *Router) Exec(ctx context.Context, input string) (string, error) {
	replicas := r.replicaSet()
	if len(replicas) == 0 || !hql.ReadOnlyScript(input) {
		return r.execPrimary(ctx, input)
	}
	start := r.advance(len(replicas))
	for i := 0; i < len(replicas); i++ {
		idx := (start + i) % len(replicas)
		li, at, err := r.lagInfo(ctx, idx, replicas[idx])
		if err != nil || !r.fresh(li, at) {
			continue
		}
		out, err := replicas[idx].Exec(ctx, input)
		if err == nil {
			metricReplicaServed.Inc()
			return out, nil
		}
		var se *ServerError
		if errors.As(err, &se) {
			// The replica answered: a definitive statement failure is the
			// script's real result, not a routing problem.
			return "", err
		}
		if ctx.Err() != nil {
			return "", err
		}
		// Transport failure: try the next replica, then the primary.
	}
	metricPrimaryFallback.Inc()
	return r.execPrimary(ctx, input)
}

// execPrimary runs input on the current primary, re-routing once if the
// answer proves the primary has moved. Transport errors re-route only under
// retryAll (matching Client's own policy for ambiguous outcomes) or for
// read-only input.
func (r *Router) execPrimary(ctx context.Context, input string) (string, error) {
	retryTransport := r.retryAll || hql.ReadOnlyScript(input)
	return execOnPrimary(ctx, r, retryTransport, func(c *Client) (string, error) {
		return c.Exec(ctx, input)
	})
}

// ExecShard routes one shard operation to the current primary with the
// same failover re-routing as Exec. Shard operations are idempotent by
// construction (reads are pure, 2PC verbs are gid-guarded), so transport
// failures always re-route — this is what lets a coordinator's COMMIT
// survive a shard primary dying mid-2PC: the retry lands on the promoted
// replica, which answers "unknown" and triggers the APPLY fallback.
func (r *Router) ExecShard(ctx context.Context, op wire.ShardOp) (wire.ShardReply, error) {
	return execOnPrimary(ctx, r, true, func(c *Client) (wire.ShardReply, error) {
		return c.ExecShard(ctx, op)
	})
}

// ShardMap fetches the shard identity from the current primary (every node
// of a shard's replica set reports the same identity). Failover-aware like
// any primary-bound request; always transport-retryable (pure read).
func (r *Router) ShardMap(ctx context.Context) (id, count int, err error) {
	out, err := execOnPrimary(ctx, r, true, func(c *Client) (string, error) {
		return c.inline(ctx, wire.TypeShardMap)
	})
	if err != nil {
		return 0, 0, err
	}
	return parseShardMap(out)
}

// execOnPrimary runs do against the current primary, re-routing once if the
// answer proves the primary has moved. Two triggers:
//
//   - A "stale" ServerError: the node is fenced, the request definitively
//     did not execute — always safe to retry on the real primary.
//   - A transport error, only when retryTransport says the request is safe
//     to re-issue after an ambiguous outcome.
func execOnPrimary[T any](ctx context.Context, r *Router, retryTransport bool, do func(*Client) (T, error)) (T, error) {
	r.mu.Lock()
	primary := r.primary
	r.mu.Unlock()
	out, err := do(primary)
	if err == nil || ctx.Err() != nil {
		return out, err
	}
	var se *ServerError
	switch {
	case errors.As(err, &se):
		if se.Code != codeStale {
			return out, err // a real statement failure, not a deposed node
		}
	default:
		if !retryTransport {
			return out, err
		}
	}
	if !r.discoverPrimary(ctx, primary) {
		return out, err
	}
	metricRouterFailovers.Inc()
	r.mu.Lock()
	cur := r.primary
	r.mu.Unlock()
	return do(cur)
}

// discoverPrimary probes the replicas for a node reporting itself promoted,
// adopts the one with the highest term as the new primary, and demotes the
// failed connection into the replica slot it vacated (the old node, if it
// ever comes back, will be a replica). Reports whether a promoted node was
// found. The lag cache is invalidated on a swap: its entries describe the
// old topology.
func (r *Router) discoverPrimary(ctx context.Context, failed *Client) bool {
	r.mu.Lock()
	swapped := r.primary != failed
	r.mu.Unlock()
	if swapped {
		return true // a concurrent caller already swapped
	}
	replicas := r.replicaSet()
	var promoted *Client
	var bestTerm uint64
	for _, rc := range replicas {
		li, err := rc.Lag(ctx)
		if err != nil {
			continue
		}
		if li.State == "promoted" && (promoted == nil || li.Term > bestTerm) {
			promoted, bestTerm = rc, li.Term
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.primary != failed {
		// A concurrent caller swapped while we probed — our own probe saw
		// the post-swap replica set (the demoted node), so its emptiness
		// proves nothing. The retry on the adopted primary is what matters.
		return true
	}
	if promoted == nil {
		return false
	}
	for i, rc := range r.replicas {
		if rc == promoted {
			r.replicas[i] = failed
			r.primary = promoted
			for j := range r.lag {
				r.lag[j], r.lagAt[j] = LagInfo{Staleness: -1}, time.Time{}
			}
			return true
		}
	}
	return false
}

// advance returns the current round-robin start and bumps the cursor.
func (r *Router) advance(n int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	start := r.next
	if n > 0 {
		r.next = (r.next + 1) % n
	}
	return start
}

// fresh reports whether a lag answer taken at time at is still within the
// staleness bound: the answer itself ages while cached, so the probe's age
// counts against the bound too. A promoted replica reports zero staleness
// — it is the authoritative copy.
func (r *Router) fresh(li LagInfo, at time.Time) bool {
	if li.Staleness < 0 {
		return false
	}
	return li.Staleness+time.Since(at) <= r.maxStale
}

// lagInfo returns a replica's lag and when it was measured, probing at most
// every probeTTL. The cache is slot-indexed; a failover swap invalidates
// every slot, so a stale index never vouches for the wrong client.
func (r *Router) lagInfo(ctx context.Context, idx int, rc *Client) (LagInfo, time.Time, error) {
	r.mu.Lock()
	li, at := r.lag[idx], r.lagAt[idx]
	r.mu.Unlock()
	if !at.IsZero() && time.Since(at) < r.probeTTL {
		return li, at, nil
	}
	li, err := rc.Lag(ctx)
	if err != nil {
		return LagInfo{Staleness: -1}, time.Time{}, err
	}
	now := time.Now()
	r.mu.Lock()
	r.lag[idx], r.lagAt[idx] = li, now
	r.mu.Unlock()
	return li, now, nil
}
