package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"time"

	"hrdb/internal/hql"
	"hrdb/internal/obs"
	"hrdb/internal/shard"
	"hrdb/internal/wire"
)

// ErrServerClosed is returned by Start and Shutdown on a server that is
// already draining or closed.
var ErrServerClosed = errors.New("server: closed")

// Options tunes the resilience machinery. The zero value selects sensible
// defaults (see the field comments).
type Options struct {
	// Workers is the number of statement-executing goroutines; admitted
	// requests beyond it wait in the queue. Default: GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue. A request arriving when
	// Workers are busy and the queue is full is shed with "overloaded"
	// instead of growing an unbounded backlog. Default: 4 × Workers.
	QueueDepth int
	// MaxConns bounds concurrent connections; excess connections receive
	// an "overloaded" error frame and are closed. Default: 256.
	MaxConns int
	// IdleTimeout closes a connection that has had no outstanding request
	// — no statement, feed or REPL stream — for this long. Default: 5
	// minutes; negative disables.
	IdleTimeout time.Duration
	// MaxStatementBytes bounds one EXEC payload. Default: 1 MiB.
	MaxStatementBytes int
	// MaxDeadline caps (and, when the client sends none, provides) the
	// per-request execution deadline. Default: 30 seconds; negative
	// disables.
	MaxDeadline time.Duration
	// RetryAfter is the backoff hint attached to "overloaded" errors.
	// Default: 50 ms.
	RetryAfter time.Duration
	// CloseTarget makes Shutdown close the target (via its Close() error
	// method, e.g. a storage.Store) exactly once after the drain.
	CloseTarget bool
	// SlowQuery, when non-nil, records statements slower than its threshold
	// (one line per offending EXEC, with per-stage timings).
	SlowQuery *obs.SlowQueryLog
	// Tracer, when non-nil, receives a span per executed statement.
	Tracer obs.Tracer
	// Repl, when non-nil, enables the SNAP and REPL verbs: this server can
	// bootstrap and stream WAL records to follower processes. Typically a
	// repl.Primary over the same store the server executes against, or the
	// repl.Replica a replica server fronts. Repl, Shard and Subscribe act on
	// the main target, so they answer default-namespace connections only.
	Repl ReplSource
	// Promote, when non-nil, enables the PROMOTE verb (manual failover):
	// it must flip the serving target writable and is typically wired to a
	// repl.Replica on a server that fronts one.
	Promote func() error
	// LagProbe, when non-nil, enables the LAG verb: it reports the serving
	// replica's replication state for lag-bounded read routing.
	LagProbe func() LagInfo
	// Tenants declares named namespaces this server hosts besides the
	// default one (the main target). Connections resolve a namespace at
	// HELLO; each tenant carries its own admission quota, rate limit, and
	// labeled metric series. A config named DefaultTenant attaches limits
	// to the default namespace.
	Tenants []TenantConfig
	// Shard, when non-nil, marks this server a cluster member: it enables
	// the SHARDMAP verb (shard identity probe, answered inline) and the
	// EXECSHARD verb (shard operations — scatter reads and two-phase-commit
	// participation — executed on the worker pool like EXEC).
	Shard *shard.Node
	// Subscribe, when non-nil, enables the SUBSCRIBE verb: clients follow
	// materialized-view (and relation) change feeds with resumable
	// positions. Typically a view.Manager over the same store the server
	// executes against.
	Subscribe SubscribeSource
}

// withDefaults resolves zero values.
func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4 * o.Workers
	}
	if o.MaxConns <= 0 {
		o.MaxConns = 256
	}
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 5 * time.Minute
	}
	if o.MaxStatementBytes <= 0 {
		o.MaxStatementBytes = 1 << 20
	}
	if o.MaxDeadline == 0 {
		o.MaxDeadline = 30 * time.Second
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = 50 * time.Millisecond
	}
	return o
}

// taskResult is a finished statement execution.
type taskResult struct {
	out      string
	err      error
	panicked bool
}

// task is one admitted EXEC request travelling through the work queue.
type task struct {
	sess   *hql.Session
	input  string
	ctx    context.Context
	cancel context.CancelFunc
	// run, when non-nil, replaces the session execution (EXECSHARD runs
	// the shard node instead of parsing input as HQL).
	run func(ctx context.Context) (string, error)
	// tn is the namespace the request runs under; the worker returns its
	// admission slot when the statement leaves the pool.
	tn *tenantState
	// done carries the result; buffered so an abandoning connection
	// handler (deadline fired first) never blocks the worker.
	done chan taskResult
}

// Server is a TCP front end over one hql.Target. Each stream of a
// connection gets its own hql.Session (sessions are single-goroutine; a
// stream runs one statement at a time), writes are serialized by the
// target itself, and statement execution runs on a fixed worker pool
// behind a bounded admission queue.
type Server struct {
	target  hql.Target
	opts    Options
	tenants map[string]*tenantState // immutable after New

	ln   net.Listener
	work chan *task

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	tasks    map[*task]struct{} // admitted, not yet finished (for drain cancel)
	started  bool
	draining bool

	inflight  sync.WaitGroup // admitted tasks
	replyWG   sync.WaitGroup // EXEC request/reply cycles (reply flushed)
	workerWG  sync.WaitGroup
	connWG    sync.WaitGroup
	acceptWG  sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// New creates a server over target. The target must be internally
// synchronized for concurrent use (catalog.Database and storage.Store
// both are).
func New(target hql.Target, opts Options) *Server {
	o := opts.withDefaults()
	return &Server{
		target:  target,
		opts:    o,
		tenants: buildTenants(target, o.Tenants),
		conns:   make(map[net.Conn]struct{}),
		tasks:   make(map[*task]struct{}),
	}
}

// Start listens on addr ("host:port"; port 0 picks a free port) and begins
// serving in background goroutines. Use Addr to learn the bound address
// and Shutdown to stop.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.started || s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.started = true
	s.ln = ln
	s.work = make(chan *task, s.opts.QueueDepth)
	s.mu.Unlock()

	for i := 0; i < s.opts.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	s.acceptWG.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the listener's address (empty before Start).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// acceptLoop admits connections up to MaxConns; beyond the limit the
// connection is answered with one "overloaded" frame and closed, so the
// client backs off instead of hanging in the TCP backlog.
func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown (or fatal; accept loop ends)
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			s.refuse(c, codeShutdown, 0, "server is shutting down")
			continue
		}
		if len(s.conns) >= s.opts.MaxConns {
			s.mu.Unlock()
			metricConnRefused.Inc()
			s.refuse(c, codeOverloaded, s.opts.RetryAfter, "server at connection limit")
			continue
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		metricActiveConns.Inc()
		go s.handleConn(c)
	}
}

// refuse answers a connection with one text ERR — what the client reads as
// the reply to its HELLO — and closes it.
func (s *Server) refuse(c net.Conn, code Code, retryAfter time.Duration, msg string) {
	c.SetWriteDeadline(time.Now().Add(2 * time.Second))
	wire.WriteHelloErr(c, string(code), retryAfter, msg)
	c.Close()
}

// dropConn unregisters and closes a connection.
func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	if _, ok := s.conns[c]; ok {
		delete(s.conns, c)
		metricActiveConns.Dec()
	}
	s.mu.Unlock()
	c.Close()
}

// handleConn serves one connection: the HELLO exchange resolves its
// namespace, then serveMux owns it until it ends. Any other opening line
// is answered with one ERR proto. A panic anywhere in the handler is
// confined to this connection.
func (s *Server) handleConn(c net.Conn) {
	defer s.connWG.Done()
	defer s.dropConn(c)
	defer func() {
		if p := recover(); p != nil {
			// Handler bug or poisoned connection state: drop the
			// connection, keep the server.
			_ = p
		}
	}()

	br := bufio.NewReader(c)
	if s.opts.IdleTimeout > 0 {
		c.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
	}
	tenant, err := wire.ReadHello(br)
	if err != nil {
		if errors.Is(err, wire.ErrProtocol) {
			wire.WriteHelloErr(c, string(codeProto), 0, err.Error())
		}
		return // EOF, idle timeout, or not a HELLO: close
	}
	tn, ok := s.resolveTenant(tenant)
	if !ok {
		wire.WriteHelloErr(c, string(codeTenant), 0, "unknown tenant "+strconv.Quote(tenant))
		return
	}
	if wire.WriteHelloOK(c, "v2 tenant="+tn.name) != nil {
		return
	}
	s.serveMux(c, br, tn)
}

// newSession builds a session over a tenant's target with the server's
// observability hooks attached.
func (s *Server) newSession(tn *tenantState) *hql.Session {
	sess := hql.NewSession(tn.target)
	sess.SetSlowQueryLog(s.opts.SlowQuery)
	sess.SetTracer(s.opts.Tracer)
	return sess
}

// drainingNow reports whether Shutdown has begun. Replication and
// subscription requests check it so no new bootstrap, stream or feed
// starts once the store's close is scheduled.
func (s *Server) drainingNow() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// submit offers a task to the bounded admission queue without blocking:
// a full queue sheds the request with "overloaded", a tenant over its own
// quota or rate limit is shed with "quota". The inflight count is raised
// before the queue send so drain never misses an admitted task.
func (s *Server) submit(t *task) (code Code, err error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return codeShutdown, errors.New("server is shutting down")
	}
	if t.tn != nil && !t.tn.admit() {
		s.mu.Unlock()
		metricShed.Inc()
		t.tn.mShed.Inc()
		return codeQuota, t.tn.quotaErr()
	}
	s.inflight.Add(1)
	s.tasks[t] = struct{}{}
	select {
	case s.work <- t:
		s.mu.Unlock()
		metricQueueDepth.Inc()
		return "", nil
	default:
		delete(s.tasks, t)
		s.inflight.Done()
		if t.tn != nil {
			t.tn.release()
		}
		s.mu.Unlock()
		metricShed.Inc()
		return codeOverloaded, errors.New("server overloaded: admission queue full")
	}
}

// worker executes queued tasks until the queue is closed and drained.
func (s *Server) worker() {
	defer s.workerWG.Done()
	for t := range s.work {
		metricQueueDepth.Dec()
		res := runTask(t)
		t.done <- res
		if t.tn != nil {
			t.tn.release()
		}
		s.mu.Lock()
		delete(s.tasks, t)
		s.mu.Unlock()
		s.inflight.Done()
	}
}

// runTask executes one statement with panic isolation: a panicking
// statement yields an error result instead of taking the worker (and the
// server) down.
func runTask(t *task) (res taskResult) {
	defer func() {
		if p := recover(); p != nil {
			res = taskResult{
				err:      fmt.Errorf("statement panicked: %v", p),
				panicked: true,
			}
		}
	}()
	if t.run != nil {
		out, err := t.run(t.ctx)
		return taskResult{out: out, err: err}
	}
	out, err := t.sess.ExecContext(t.ctx, t.input)
	return taskResult{out: out, err: err}
}

// Shutdown gracefully stops the server: it stops accepting connections and
// admitting statements, drains in-flight statements, and — once the drain
// completes or ctx expires — cancels whatever is still running, closes
// every connection, and (with Options.CloseTarget) closes the target
// exactly once. It returns ctx.Err() if the drain deadline cut the wait
// short, nil on a clean drain. Repeated calls return ErrServerClosed.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.started || s.draining {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.draining = true
	ln := s.ln
	s.mu.Unlock()

	// 1. Stop accepting. The accept loop exits on the listener error.
	ln.Close()
	// 2. No submit can start now (draining is set under mu), so the queue
	//    can close: workers finish the backlog and exit.
	close(s.work)

	// 3. Drain: wait for admitted statements, bounded by ctx.
	drained := waitCh(&s.inflight)
	var drainErr error
	select {
	case <-drained:
		// Statements finished; also wait (ctx-bounded) for their replies to
		// reach the sockets before step 4 severs the connections.
		select {
		case <-waitCh(&s.replyWG):
		case <-ctx.Done():
			drainErr = ctx.Err()
		}
	case <-ctx.Done():
		drainErr = ctx.Err()
		// Deadline: cancel everything still queued or running. Statements
		// on the context-aware paths abort promptly; a statement blocked in
		// non-cancellable code keeps its worker until it returns, but every
		// connection still gets an answer (the handler watches task.ctx).
		s.mu.Lock()
		for t := range s.tasks {
			t.cancel()
		}
		s.mu.Unlock()
		select {
		case <-drained:
			drainErr = nil // everything aborted in time after the cancel
		case <-time.After(100 * time.Millisecond):
		}
	}

	// 4. Retire connections; handlers unblock on the closed conns.
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()

	if drainErr == nil {
		// Clean drain: workers and handlers exit promptly; wait so the
		// caller observes zero server goroutines after Shutdown.
		s.workerWG.Wait()
		s.connWG.Wait()
	}
	s.acceptWG.Wait()

	// 5. Close the target exactly once, after the drain, so every
	//    acknowledged statement is durable before the store closes.
	if s.opts.CloseTarget {
		s.closeOnce.Do(func() {
			if c, ok := s.target.(interface{ Close() error }); ok {
				s.closeErr = c.Close()
			}
		})
		if drainErr == nil && s.closeErr != nil {
			return s.closeErr
		}
	}
	return drainErr
}

// waitCh adapts a WaitGroup to a channel.
func waitCh(wg *sync.WaitGroup) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		wg.Wait()
		close(ch)
	}()
	return ch
}
