// Package hrdb is a Go implementation of the hierarchical relational model
// of H. V. Jagadish, "Incorporating Hierarchy in a Relational Model of
// Data" (SIGMOD 1989).
//
// The model extends the relational model so that classes drawn from
// per-domain hierarchies can appear as attribute values: one tuple
// ∀Bird stands for every bird, negated tuples create exceptions
// (penguins don't fly) and exceptions to exceptions (amazing flying
// penguins do), multiple inheritance with conflict detection is supported,
// and two new operators — Consolidate and Explicate — convert between
// compact and flat forms. Everything is upward compatible with the flat
// relational model: a hierarchical relation is equivalent to a unique flat
// relation and every operator commutes with that flattening.
//
// This package is a thin facade over the implementation packages:
//
//   - hierarchies and class membership (internal/hierarchy)
//   - hierarchical relations, evaluation, conflicts, consolidate/explicate
//     (internal/core)
//   - relational algebra with flat-extension semantics (internal/algebra)
//   - a flat relational engine and the paper's membership-join baseline
//     (internal/flat)
//   - a synchronized multi-relation database with exception policies and
//     transactions (internal/catalog)
//   - durable storage: snapshots and a write-ahead log (internal/storage)
//   - the HQL query language (internal/hql)
//   - the TCP server, its client and read router (internal/server)
//   - WAL-shipping replication and failover (internal/repl)
//   - hash-partitioned shard clusters (internal/shard)
//   - materialized views and change feeds (internal/view)
//   - metrics, tracing and the slow-query log (internal/obs)
//   - Datalog over hierarchical relations (internal/deductive)
//   - a frame-based KR front end (internal/frames)
//   - three-valued open-world evaluation (internal/tvl)
//   - partial information (internal/partial)
//   - automatic hierarchy mining (internal/mining)
//
// Quickstart:
//
//	animals := hrdb.NewHierarchy("Animal")
//	animals.AddClass("Bird")
//	animals.AddClass("Penguin", "Bird")
//	animals.AddInstance("Tweety", "Bird")
//	animals.AddInstance("Paul", "Penguin")
//
//	flies := hrdb.NewRelation("Flies", hrdb.MustSchema(
//		hrdb.Attribute{Name: "Creature", Domain: animals}))
//	flies.Assert("Bird")   // all birds fly …
//	flies.Deny("Penguin")  // … except penguins
//
//	ok, _ := flies.Holds("Tweety") // true
//	ok, _ = flies.Holds("Paul")    // false
package hrdb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"hrdb/internal/algebra"
	"hrdb/internal/catalog"
	"hrdb/internal/core"
	"hrdb/internal/deductive"
	"hrdb/internal/flat"
	"hrdb/internal/frames"
	"hrdb/internal/hierarchy"
	"hrdb/internal/hql"
	"hrdb/internal/mining"
	"hrdb/internal/obs"
	"hrdb/internal/partial"
	"hrdb/internal/repl"
	"hrdb/internal/server"
	"hrdb/internal/shard"
	"hrdb/internal/storage"
	"hrdb/internal/tvl"
	"hrdb/internal/view"
)

// Core model types.
type (
	// Hierarchy is a rooted DAG of classes and instances over one domain.
	Hierarchy = hierarchy.Hierarchy
	// Relation is a hierarchical relation: signed tuples whose attribute
	// values may be classes.
	Relation = core.Relation
	// Schema is an ordered list of attributes over hierarchies.
	Schema = core.Schema
	// Attribute names one column and its domain hierarchy.
	Attribute = core.Attribute
	// Item is one hierarchy node per attribute.
	Item = core.Item
	// Preemption selects the inheritance semantics (off-path, on-path,
	// none) from the paper's appendix.
	Preemption = core.Preemption
	// ConflictError reports an ambiguity-constraint violation.
	ConflictError = core.ConflictError
	// InconsistencyError aggregates conflicts found by CheckConsistency.
	InconsistencyError = core.InconsistencyError
)

// Preemption modes.
const (
	// OffPath is the paper's default inheritance semantics.
	OffPath = core.OffPath
	// OnPath retains redundant edges during node elimination.
	OnPath = core.OnPath
	// NoPreemption treats any inherited sign disagreement as a conflict.
	NoPreemption = core.NoPreemption
)

// Database layer types.
type (
	// Database is a synchronized registry of hierarchies and relations
	// with integrity enforcement and transactions.
	Database = catalog.Database
	// AttrSpec names a relation attribute and its domain for CreateRelation.
	AttrSpec = catalog.AttrSpec
	// TxOp is one mutation of any kind — "assert", "deny", "retract",
	// "add_class", "set_policy", … (DESIGN.md §4b lists them) — for
	// Target.Apply / Database.Apply. Consecutive assert/deny/retract
	// ops are one transaction, of one op or many; Bare marks one issued as
	// a statement of its own, which refuses to flip a stored sign.
	TxOp = catalog.TxOp
	// ExceptionPolicy selects how exceptions are treated (§2.1).
	ExceptionPolicy = catalog.ExceptionPolicy
	// Store is a durable database: snapshot plus write-ahead log.
	Store = storage.Store
	// StoreOptions configures OpenStoreOptions (the filesystem seam).
	StoreOptions = storage.Options
	// StoreFS is the filesystem seam a store performs all I/O through;
	// inject a fault-wrapped implementation to test crash behaviour.
	StoreFS = storage.FS
	// StoreFile is one open file of a StoreFS.
	StoreFile = storage.File
	// FaultFS wraps a StoreFS with programmable fault injection (failed
	// fsyncs, short writes, crashes after a byte budget).
	FaultFS = storage.FaultFS
	// Session executes HQL statements.
	Session = hql.Session
	// KB is a frame-based knowledge base over the model.
	KB = frames.KB
	// FlatRelation is a standard flat relation (oracle and baseline).
	FlatRelation = flat.Relation
	// Truth is a three-valued (true/false/unknown) truth value.
	Truth = tvl.Truth
	// MiningResult describes an automatically mined organization.
	MiningResult = mining.Result
	// Condition restricts one attribute in a selection.
	Condition = algebra.Condition
	// Plan describes the access path the cost-based planner chose for an
	// operator; EXPLAIN renders it.
	Plan = algebra.Plan
)

// Exception policies.
const (
	// AllowExceptions freely permits exceptions (default).
	AllowExceptions = catalog.AllowExceptions
	// WarnExceptions permits exceptions and reports each with the write
	// that raised it: Database.Apply and Target.Apply return it, and an HQL
	// reply carries it as a "warning: " line.
	WarnExceptions = catalog.WarnExceptions
	// ForbidExceptions rejects updates contradicting inherited values.
	ForbidExceptions = catalog.ForbidExceptions
)

// The open-world truth values EvaluateOpenWorld returns.
const (
	// True is the truth of an item the relation asserts.
	True = tvl.True
	// False is the truth of an item the relation denies.
	False = tvl.False
	// Unknown is the truth of an item the relation neither asserts nor
	// denies, or one it binds ambiguously.
	Unknown = tvl.Unknown
)

// The kinds of entry a relation keeps per state, which index the arrays
// Relation.CacheStats returns.
const (
	// Verdicts are Evaluate's results, one per item.
	Verdicts = core.Verdicts
	// Answers are HQL's rendered SELECT, COUNT and EXTENSION answers.
	Answers = core.Answers
)

// NewHierarchy creates a hierarchy whose root class is the domain itself.
func NewHierarchy(domain string) *Hierarchy { return hierarchy.New(domain) }

// NewSchema builds a schema from attributes (names must be unique).
func NewSchema(attrs ...Attribute) (*Schema, error) { return core.NewSchema(attrs...) }

// MustSchema is NewSchema that panics on error.
func MustSchema(attrs ...Attribute) *Schema { return core.MustSchema(attrs...) }

// NewRelation creates an empty hierarchical relation.
func NewRelation(name string, schema *Schema) *Relation { return core.NewRelation(name, schema) }

// NewDatabase creates an empty in-memory database.
func NewDatabase() *Database { return catalog.New() }

// OpenStore opens (creating if needed) a durable database rooted at dir.
func OpenStore(dir string) (*Store, error) { return storage.Open(dir) }

// OpenStoreOptions opens a durable database with explicit options — an
// injected filesystem (e.g. NewFaultFS for crash testing).
func OpenStoreOptions(dir string, opts StoreOptions) (*Store, error) {
	return storage.OpenOptions(dir, opts)
}

// NewFaultFS wraps base (nil for the real filesystem) with programmable
// fault injection for durability testing.
func NewFaultFS(base StoreFS) *FaultFS { return storage.NewFaultFS(base) }

// NewSession creates an HQL session over an in-memory database.
func NewSession(db *Database) *Session { return hql.NewSession(hql.MemTarget{DB: db}) }

// NewStoreSession creates an HQL session over a durable store.
func NewStoreSession(s *Store) *Session { return hql.NewSession(s) }

// Target is what HQL sessions, servers and shard nodes read and write:
// Database() for queries and Apply([]TxOp) for every mutation, one bare op
// per statement or a BEGIN…COMMIT bracket's transaction, returning the
// exception warnings that write raised. *Store implements it directly,
// NewMemTarget adapts a Database, and ReplicaTarget and NewViewTarget wrap
// another Target's Apply.
type Target = hql.Target

// NewMemTarget adapts an in-memory database into a Target whose Apply is
// Database.Apply (for NewServer over a non-durable database).
func NewMemTarget(db *Database) Target { return hql.MemTarget{DB: db} }

// Service layer: a multiplexed HQL server over TCP (one framed protocol,
// internal/wire), its client and multi-tenant namespaces.
type (
	// Server is a TCP front end over one Target with admission control,
	// per-request deadlines, panic isolation, multi-tenant namespaces, and
	// graceful drain.
	Server = server.Server
	// ServerOptions tunes the server's resilience machinery.
	ServerOptions = server.Options
	// TenantConfig declares one named namespace a server hosts (its own
	// target, admission quota, and rate limit); see ServerOptions.Tenants.
	TenantConfig = server.TenantConfig
	// TenantLimits bounds one tenant's admission (max in-flight statements,
	// sustained statements/second, burst).
	TenantLimits = server.TenantLimits
	// Client is a connection to a Server with reconnect, deadline
	// plumbing, and idempotency-aware retries with exponential backoff.
	// Concurrent Execs pipeline over one connection and complete out of
	// order.
	Client = server.Client
	// Option configures Dial and DialRouter.
	Option = server.Option
	// ServerError is a failure reported by the server in an ERR frame;
	// match the standard sentinels with errors.Is.
	ServerError = server.ServerError
	// ErrorCode is a wire error code carried by ServerError ("exec",
	// "overloaded", "quota", …).
	ErrorCode = server.Code
)

// ProtocolV2 names the framed protocol, the only one clients and servers
// speak. It exists for WithProtocol.
const ProtocolV2 = server.ProtocolV2

// DefaultTenant is the namespace served to connections that never name one.
const DefaultTenant = server.DefaultTenant

// NewServer creates a server over target (a *Store or NewMemTarget(db));
// call Start to serve and Shutdown to drain and stop.
func NewServer(target Target, opts ServerOptions) *Server { return server.New(target, opts) }

// Dial connects to a Server's address.
func Dial(addr string, opts ...Option) (*Client, error) { return server.Dial(addr, opts...) }

// WithMaxRetries sets how many times a failed request may be retried.
func WithMaxRetries(n int) Option { return server.WithMaxRetries(n) }

// WithRetryNonIdempotent opts in to retrying mutations after ambiguous
// transport failures (see the server package for the safety discussion).
func WithRetryNonIdempotent(enabled bool) Option {
	return server.WithRetryNonIdempotent(enabled)
}

// WithTenant names the server-side namespace this client's statements run
// in (resolved during the handshake; unknown tenants fail the dial).
func WithTenant(name string) Option { return server.WithTenant(name) }

// WithProtocol is a no-op kept for source compatibility: every connection
// speaks the framed protocol (ProtocolV2).
func WithProtocol(v int) Option { return server.WithProtocol(v) }

// Materialized views: CREATE MATERIALIZED VIEW registers a read-only HQL
// query whose results are computed once, persisted, and then maintained
// incrementally by tailing the committed WAL stream; SUBSCRIBE streams a
// view's (or relation's) changes to clients with resumable positions. See
// docs/VIEWS.md.
type (
	// ViewManager maintains materialized views over a Store and serves
	// their change feeds; wire it into HQL with NewViewTarget and into a
	// Server with ServerOptions.Subscribe.
	ViewManager = view.Manager
	// ViewOptions tunes view maintenance (persistence directory, journal
	// retention, feed heartbeat cadence).
	ViewOptions = view.Options
	// Subscription is a client-side change feed with automatic
	// reconnect-and-resume; see Client.Subscribe.
	Subscription = server.Subscription
)

// OpenViews starts a view manager over a store: persisted views are
// restored (recomputing when the store moved while it was down) and
// maintenance begins tailing the WAL. Close it after the server drains.
func OpenViews(s *Store, opts ViewOptions) (*ViewManager, error) { return view.Open(s, opts) }

// NewViewTarget wraps a target so HQL sessions can create, query, and drop
// materialized views (CREATE MATERIALIZED VIEW, SHOW VIEWS, DROP VIEW, and
// views readable wherever a relation is).
func NewViewTarget(base Target, m *ViewManager) Target { return view.NewTarget(base, m) }

// Replication: a primary ships its WAL to read replicas; a router splits
// reads onto fresh-enough replicas. See README "Replication" and
// docs/HQL.md for the wire protocol.
type (
	// Primary serves replication (snapshots + WAL stream) from a Store;
	// wire it into ServerOptions.Repl.
	Primary = repl.Primary
	// PrimaryOptions tunes chunking and heartbeats.
	PrimaryOptions = repl.PrimaryOptions
	// Replica follows a primary, maintaining a read-only in-memory copy.
	Replica = repl.Replica
	// ReplicaOptions tunes dialing and reconnect backoff.
	ReplicaOptions = repl.ReplicaOptions
	// ReplicaTarget serves a Replica to HQL sessions: reads always,
	// writes only after promotion.
	ReplicaTarget = repl.ReplicaTarget
	// LagInfo is a replica's replication state as its LAG answer carries
	// it: position, state, fencing term, election identity and streamable
	// source. ServerOptions.LagProbe returns it; Replica.Status is one.
	LagInfo = server.LagInfo
	// Deposition is the verdict of CheckDeposed: the higher fencing term
	// that deposed this node and where the new primary streams from.
	Deposition = repl.Deposition
	// Router splits reads onto lag-bounded replicas, writes onto the
	// primary.
	Router = server.Router
)

// Sharding: a cluster hash-partitions each relation's all-instance tuples
// across shard servers (class-containing tuples replicate everywhere). The
// coordinator is a Session whose target routes each op to the shards that
// hold it (two-phase commit across several) and fetches each read's tuples
// from the shards that hold them; every relation, an `… AS` result
// included, lives on the shards. See docs/SHARDING.md.
type (
	// ShardNode is the shard-local executor and 2PC participant a server
	// hosts (ServerOptions.Shard); it answers the SHARDMAP and EXECSHARD
	// verbs.
	ShardNode = shard.Node
	// Cluster is a shard-aware coordinator: a Session over many shard
	// servers, answering every script byte for byte as one node would.
	Cluster = shard.Cluster
)

// NewShardNode creates the shard-local executor for shard id of count over
// the server's target; wire it into ServerOptions.Shard.
func NewShardNode(target Target, id, count int) *ShardNode {
	return shard.NewNode(target, id, count)
}

// DialCluster connects a coordinator to a shard cluster. Each element of
// addrs describes one shard, in shard-id order, as "primary" or
// "primary,replica,replica…": bare addresses get a plain Client, addresses
// with replicas get a failover-aware Router (so a shard primary dying
// mid-transaction is ridden out by its replica set). Every connection's
// SHARDMAP answer is checked against its position so a mis-ordered address
// list fails at dial time instead of corrupting placement. A single plain
// server (no shard node) may be dialed as a one-shard cluster; it takes
// writes, but its reads need the shard operations it does not serve.
func DialCluster(ctx context.Context, addrs []string, opts ...Option) (*Cluster, error) {
	conns := make([]shard.Conn, 0, len(addrs))
	fail := func(err error) (*Cluster, error) {
		for _, c := range conns {
			c.Close()
		}
		return nil, err
	}
	for i, spec := range addrs {
		parts := strings.Split(spec, ",")
		var conn shard.Conn
		var err error
		if len(parts) == 1 {
			conn, err = server.Dial(parts[0], opts...)
		} else {
			conn, err = server.DialRouter(parts[0], parts[1:], opts...)
		}
		if err != nil {
			return fail(err)
		}
		conns = append(conns, conn)
		id, count, err := conn.(interface {
			ShardMap(context.Context) (int, int, error)
		}).ShardMap(ctx)
		switch {
		case errors.Is(err, ErrUnsupported) && len(addrs) == 1:
			// A plain server as a trivial one-shard cluster.
		case err != nil:
			return fail(fmt.Errorf("shard %d (%s): %w", i, spec, err))
		case id != i || count != len(addrs):
			return fail(fmt.Errorf("shard %d (%s): server reports shard %d of %d, want %d of %d",
				i, spec, id, count, i, len(addrs)))
		}
	}
	return shard.NewCluster(ctx, conns)
}

// ErrReadOnlyReplica rejects mutations on an unpromoted replica.
var ErrReadOnlyReplica = repl.ErrReadOnlyReplica

// CheckDeposed probes peers for a fencing term higher than the store's; if
// one is found the store is fenced against further writes and the returned
// Deposition says who to rejoin. Nil means no peer answered with a higher
// term. Run it when a durable node restarts into a cluster that may have
// elected a new primary while it was down.
func CheckDeposed(st *Store, peers []string, timeout time.Duration) *Deposition {
	return repl.CheckDeposed(st, peers, timeout)
}

// Demote dismantles a deposed primary's store so the node can rejoin as a
// replica: the committed-but-unreplicated WAL suffix past the winner's
// takeover point is preserved in a quarantine sidecar file (returned path;
// empty when nothing diverged), then the store is closed and its files
// removed. The quarantine file survives for operator inspection.
func Demote(st *Store, dep *Deposition, timeout time.Duration) (quarantine string, err error) {
	return repl.Demote(st, dep, timeout)
}

// NewPrimary creates a replication source over an open store.
func NewPrimary(store *Store, opts PrimaryOptions) *Primary { return repl.NewPrimary(store, opts) }

// NewReplica starts a replica following the primary server at addr.
func NewReplica(addr string, opts ReplicaOptions) *Replica { return repl.NewReplica(addr, opts) }

// DialRouter connects a lag-bounded read router to a primary and its
// replicas, passing the same options to every connection.
func DialRouter(primaryAddr string, replicaAddrs []string, opts ...Option) (*Router, error) {
	return server.DialRouter(primaryAddr, replicaAddrs, opts...)
}

// WithMaxStaleness bounds how stale a replica may be and still serve
// routed reads (router-only; plain Dial ignores it).
func WithMaxStaleness(d time.Duration) Option { return server.WithMaxStaleness(d) }

// WithLagProbeInterval sets how long the router caches a replica's LAG
// answer (router-only; plain Dial ignores it).
func WithLagProbeInterval(d time.Duration) Option { return server.WithLagProbeInterval(d) }

// Fingerprint renders a database's logical state canonically; equal
// fingerprints mean equal facts (used to verify replica convergence).
func Fingerprint(db *Database) string { return storage.Fingerprint(db) }

// NewKB creates an empty frame knowledge base.
func NewKB() *KB { return frames.NewKB() }

// NewFlatRelation creates a standard flat relation.
func NewFlatRelation(name string, attrs ...string) *FlatRelation { return flat.New(name, attrs...) }

// Select restricts a relation to the sub-hierarchies under the conditions.
func Select(name string, r *Relation, conds ...Condition) (*Relation, error) {
	return algebra.Select(name, r, conds...)
}

// Project computes the existential projection onto the named attributes.
func Project(name string, r *Relation, attrs ...string) (*Relation, error) {
	return algebra.Project(name, r, attrs...)
}

// SelectContext is Select honoring context cancellation.
func SelectContext(ctx context.Context, name string, r *Relation, conds ...Condition) (*Relation, error) {
	return algebra.SelectContext(ctx, name, r, conds...)
}

// Join computes the natural join over shared attribute names.
func Join(name string, a, b *Relation) (*Relation, error) { return algebra.Join(name, a, b) }

// JoinContext is Join honoring context cancellation.
func JoinContext(ctx context.Context, name string, a, b *Relation) (*Relation, error) {
	return algebra.JoinContext(ctx, name, a, b)
}

// Union returns a relation whose extension is Ext(a) ∪ Ext(b).
func Union(name string, a, b *Relation) (*Relation, error) { return algebra.Union(name, a, b) }

// Intersect returns a relation whose extension is Ext(a) ∩ Ext(b).
func Intersect(name string, a, b *Relation) (*Relation, error) {
	return algebra.Intersect(name, a, b)
}

// Difference returns a relation whose extension is Ext(a) − Ext(b).
func Difference(name string, a, b *Relation) (*Relation, error) {
	return algebra.Difference(name, a, b)
}

// Rename renames attributes according to the mapping.
func Rename(name string, r *Relation, mapping map[string]string) (*Relation, error) {
	return algebra.Rename(name, r, mapping)
}

// PlanSelect returns the access plan Select would execute, without running
// the query.
func PlanSelect(r *Relation, conds ...Condition) (*Plan, error) {
	return algebra.PlanSelect(r, conds...)
}

// Sentinel errors, re-exported so callers can match with errors.Is without
// importing the internal packages.
var (
	// ErrSchema indicates an invalid schema definition.
	ErrSchema = core.ErrSchema
	// ErrArity indicates an item with the wrong number of coordinates.
	ErrArity = core.ErrArity
	// ErrUnknownValue indicates an item coordinate outside its domain.
	ErrUnknownValue = core.ErrUnknownValue
	// ErrUnknownAttribute indicates a reference to an attribute name absent
	// from a relation's schema.
	ErrUnknownAttribute = core.ErrUnknownAttribute
	// ErrUnknownMode indicates an undefined preemption mode.
	ErrUnknownMode = core.ErrUnknownMode
	// ErrContradiction indicates re-asserting an item with the opposite sign.
	ErrContradiction = core.ErrContradiction
	// ErrIncompatible indicates schema-incompatible relations.
	ErrIncompatible = core.ErrIncompatible
	// ErrNoSuchClass indicates an unknown hierarchy node.
	ErrNoSuchClass = hierarchy.ErrUnknown
	// ErrExists indicates a duplicate hierarchy or relation name.
	ErrExists = catalog.ErrExists
	// ErrNotFound indicates a missing hierarchy or relation.
	ErrNotFound = catalog.ErrNotFound
	// ErrExceptionForbidden indicates an update rejected by policy.
	ErrExceptionForbidden = catalog.ErrExceptionForbidden
	// ErrStoreFailed indicates a store poisoned by an I/O error; reopen it
	// to recover the durable prefix.
	ErrStoreFailed = storage.ErrStoreFailed
	// ErrOverloaded indicates a request the server shed; it was never
	// executed and may be retried after the Retry-After hint.
	ErrOverloaded = server.ErrOverloaded
	// ErrQuotaExceeded indicates a request shed by its tenant's admission
	// quota or rate limit; it was never executed and may be retried.
	ErrQuotaExceeded = server.ErrQuotaExceeded
	// ErrUnknownTenant indicates a namespace the server does not host.
	ErrUnknownTenant = server.ErrUnknownTenant
	// ErrServerClosed indicates a server that is draining or closed.
	ErrServerClosed = server.ErrServerClosed
	// ErrClientClosed indicates a request failed because Client.Close ran
	// (in-flight pipelined requests fail rather than delaying Close).
	ErrClientClosed = server.ErrClientClosed
	// ErrProtocol indicates a wire-protocol violation (either side).
	ErrProtocol = server.ErrProtocol
	// ErrStatementTooLarge indicates an EXEC payload over the server's
	// MaxStatementBytes.
	ErrStatementTooLarge = server.ErrStatementTooLarge
	// ErrExecFailed indicates a statement the server executed and rejected
	// (parse error, integrity violation, …); never retried.
	ErrExecFailed = server.ErrExecFailed
	// ErrStatementPanicked indicates a statement that panicked server-side.
	ErrStatementPanicked = server.ErrStatementPanicked
	// ErrUnsupported indicates a verb or feature this server (or protocol
	// version) does not provide.
	ErrUnsupported = server.ErrUnsupported
	// ErrStaleReplica indicates a read rejected because the replica knows
	// it is too far behind.
	ErrStaleReplica = server.ErrStaleReplica
	// ErrFeedNotFound ends a subscription to a name that is no view or
	// relation (Subscription.Next).
	ErrFeedNotFound = server.ErrFeedNotFound
	// ErrFeedDropped ends a subscription whose view was dropped.
	ErrFeedDropped = server.ErrFeedDropped
)

// Observability: process-wide metrics, tracing hooks, and the slow-query
// log (internal/obs). Every layer — engine, storage, server — feeds one
// default registry; expose it with Metrics (structured snapshot),
// MetricsText / ServeMetrics (Prometheus text format plus /debug/pprof),
// the server's STATS verb (Client.Stats), or hrshell's
// \stats meta-command. See docs/OBSERVABILITY.md for the metric inventory.
type (
	// MetricsSnapshot is a point-in-time copy of every registered metric.
	MetricsSnapshot = obs.Snapshot
	// Tracer receives completed spans from instrumented operations.
	Tracer = obs.Tracer
	// Span is one completed timed operation reported to a Tracer.
	Span = obs.Span
	// SlowQueryLog writes one line per statement slower than a threshold;
	// attach it via ServerOptions.SlowQuery or Session.SetSlowQueryLog.
	SlowQueryLog = obs.SlowQueryLog
	// MetricsServer is a background HTTP server exposing /metrics and
	// /debug/pprof (see ServeMetrics).
	MetricsServer = obs.MetricsServer
)

// Metrics returns a consistent snapshot of every process-wide metric.
func Metrics() MetricsSnapshot { return obs.Default().Snapshot() }

// MetricsText renders the process metrics in Prometheus text exposition
// format — the same payload the HTTP endpoint and the STATS verb serve.
func MetricsText() string { return obs.Default().RenderText() }

// ServeMetrics starts a background HTTP server on addr ("host:port"; port
// 0 picks a free port) exposing /metrics and /debug/pprof. Close the
// returned server to stop it.
func ServeMetrics(addr string) (*MetricsServer, error) { return obs.StartMetricsServer(addr, nil) }

// NewSlowQueryLog creates a slow-query log writing to w statements whose
// total duration is at least threshold (0 records everything).
func NewSlowQueryLog(w io.Writer, threshold time.Duration) *SlowQueryLog {
	return obs.NewSlowQueryLog(w, threshold)
}

// EvaluateOpenWorld computes the three-valued truth of an item.
func EvaluateOpenWorld(r *Relation, item Item) (Truth, error) { return tvl.Evaluate(r, item) }

// AndTruth is Kleene three-valued conjunction.
func AndTruth(a, b Truth) Truth { return tvl.And(a, b) }

// OrTruth is Kleene three-valued disjunction.
func OrTruth(a, b Truth) Truth { return tvl.Or(a, b) }

// NotTruth is Kleene three-valued negation.
func NotTruth(a Truth) Truth { return tvl.Not(a) }

// Mine organizes a flat relation into a hierarchical one by classifying
// the attribute at the given index (§4 future work).
func Mine(r *FlatRelation, classify int) (*MiningResult, error) { return mining.Mine(r, classify) }

// MineBest tries every attribute and returns the best compression.
func MineBest(r *FlatRelation) (int, *MiningResult, error) { return mining.BestAttribute(r) }

// Deductive layer (Datalog over hierarchical relations, §2.1).
type (
	// Program is a Datalog program whose EDB predicates are hierarchical
	// relations and whose isa/2 builtin exposes taxonomy membership.
	Program = deductive.Program
	// RuleAtom is a predicate applied to terms.
	RuleAtom = deductive.Atom
	// RuleTerm is a Datalog variable or constant.
	RuleTerm = deductive.Term
	// DatalogRule is a Horn clause.
	DatalogRule = deductive.Rule
)

// NewProgram creates an empty Datalog program.
func NewProgram() *Program { return deductive.NewProgram() }

// Var builds a Datalog variable term.
func Var(name string) RuleTerm { return deductive.V(name) }

// Const builds a Datalog constant term.
func Const(name string) RuleTerm { return deductive.C(name) }

// Pred builds a Datalog atom.
func Pred(pred string, args ...RuleTerm) RuleAtom { return deductive.A(pred, args...) }

// PartialRelation pairs a hierarchical relation with existential
// assertions for three-valued partial information (§4 future work).
type PartialRelation = partial.Relation

// NewPartial wraps a hierarchical relation for partial-information queries
// (HoldsEvery / HoldsSome, existential assertions).
func NewPartial(base *Relation) *PartialRelation { return partial.New(base) }
