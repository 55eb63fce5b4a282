package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"hrdb/internal/backoff"
	"hrdb/internal/hql"
	"hrdb/internal/wire"
)

// ServerError is a failure the server reported in an ERR frame, or in the
// text ERR that refused a HELLO.
type ServerError struct {
	Code       Code          // wire error code ("exec", "overloaded", …)
	Msg        string        // server-side error text
	RetryAfter time.Duration // backoff hint (nonzero for "overloaded"/"quota")
}

// Error implements error.
func (e *ServerError) Error() string {
	return fmt.Sprintf("server: %s: %s", e.Code, e.Msg)
}

// Is maps wire codes onto their sentinels through the code table in
// errors.go: every code matches exactly one exported error (or a context
// error), so callers use errors.Is without knowing the wire strings.
func (e *ServerError) Is(target error) bool {
	s := sentinelFor(e.Code)
	return s != nil && errors.Is(s, target)
}

// serverError lifts an ERR decoded by the wire layer into the
// *ServerError callers match with errors.Is; other errors pass through.
func serverError(err error) error {
	var we *wire.Error
	if errors.As(err, &we) {
		return &ServerError{Code: Code(we.Code), Msg: we.Msg, RetryAfter: we.RetryAfter}
	}
	return err
}

// ProtocolV2 names the framed protocol, the only one this package speaks.
// It exists for WithProtocol.
const ProtocolV2 = 2

// Option configures Dial and DialRouter: one functional-options surface
// for every client-side knob.
type Option func(*dialConfig)

// dialConfig collects every client and router knob.
type dialConfig struct {
	maxRetries  int
	baseBackoff time.Duration
	maxBackoff  time.Duration
	dialTimeout time.Duration
	retryAll    bool
	maxResponse int
	tenant      string
	// Router-only knobs (ignored by plain Dial).
	maxStale time.Duration
	probeTTL time.Duration
}

// defaultDialConfig is the option baseline shared by Dial and DialRouter.
func defaultDialConfig() dialConfig {
	return dialConfig{
		maxRetries:  3,
		baseBackoff: 10 * time.Millisecond,
		maxBackoff:  time.Second,
		dialTimeout: 5 * time.Second,
		maxResponse: 64 << 20,
		maxStale:    500 * time.Millisecond,
		probeTTL:    100 * time.Millisecond,
	}
}

// WithMaxRetries sets how many times a failed request may be retried
// (default 3; 0 disables retries).
func WithMaxRetries(n int) Option {
	return func(o *dialConfig) { o.maxRetries = n }
}

// WithBackoff sets the exponential backoff's base and cap (defaults 10ms,
// 1s). Sleeps use full jitter: a uniform draw from (0, base·2^attempt],
// never below the server's Retry-After hint.
func WithBackoff(base, max time.Duration) Option {
	return func(o *dialConfig) {
		if base > 0 {
			o.baseBackoff = base
		}
		if max > 0 {
			o.maxBackoff = max
		}
	}
}

// WithDialTimeout bounds each connection attempt (default 5s).
func WithDialTimeout(d time.Duration) Option {
	return func(o *dialConfig) { o.dialTimeout = d }
}

// WithRetryNonIdempotent opts in to retrying mutating statements after
// ambiguous failures (connection severed before the reply). By default
// only read-only scripts are retried then — a mutation whose reply was
// lost may have committed, and blind re-execution would double-apply it.
// Shed requests ("overloaded", "quota") are always retried: the server
// guarantees they were never executed.
func WithRetryNonIdempotent(enabled bool) Option {
	return func(o *dialConfig) { o.retryAll = enabled }
}

// WithTenant names the server-side namespace this client's statements run
// in, resolved by the HELLO exchange. Dialing a server that does not know
// the tenant fails with ErrUnknownTenant.
func WithTenant(name string) Option {
	return func(o *dialConfig) { o.tenant = name }
}

// WithProtocol is a no-op kept for source compatibility: every connection
// speaks the framed protocol (ProtocolV2).
func WithProtocol(int) Option { return func(*dialConfig) {} }

// Client is a connection to a Server with reconnect, deadline plumbing,
// and retry with exponential backoff. A Client is safe for concurrent use:
// concurrent requests, Streams and Subscriptions all share its one
// multiplexed connection, and replies complete out of order. Close may be
// called at any time, including with requests in flight — they fail with
// ErrClientClosed rather than delaying Close.
type Client struct {
	addr string
	o    dialConfig

	// connMu guards connection state and is never held across network
	// I/O, so Close can always acquire it.
	connMu sync.Mutex
	closed bool
	cc     *wire.Conn
	tenant string // namespace confirmed by the server
}

// Dial connects to a server. The initial connection — including the HELLO
// exchange and tenant resolution — is established eagerly so configuration
// errors surface immediately; later disconnects repair themselves on the
// next call.
func Dial(addr string, opts ...Option) (*Client, error) {
	o := defaultDialConfig()
	for _, opt := range opts {
		opt(&o)
	}
	c := &Client{addr: addr, o: o}
	c.connMu.Lock()
	err := c.connectLocked()
	c.connMu.Unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Tenant returns the namespace the server confirmed for this client
// ("default" when none was requested).
func (c *Client) Tenant() string {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.tenant
}

// connectLocked dials and runs the HELLO exchange. Callers hold c.connMu.
func (c *Client) connectLocked() error {
	cc, tenant, err := wire.DialConn(context.Background(), c.addr, c.o.dialTimeout, c.o.tenant, c.o.maxResponse)
	if err != nil {
		return serverError(err)
	}
	c.cc, c.tenant = cc, tenant
	return nil
}

// Close closes the connection and marks the client unusable. In-flight
// requests fail with ErrClientClosed instead of delaying Close or leaking
// their goroutines.
func (c *Client) Close() error {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.cc == nil {
		return nil
	}
	err := c.cc.Close()
	c.cc = nil
	return err
}

// isClosed reports whether Close has run.
func (c *Client) isClosed() bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.closed
}

// ensure returns the live connection, dialing if needed.
func (c *Client) ensure() (*wire.Conn, error) {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	if c.closed {
		return nil, ErrClientClosed
	}
	if c.cc != nil && c.cc.Alive() {
		return c.cc, nil
	}
	c.cc = nil
	if err := c.connectLocked(); err != nil {
		return nil, err
	}
	return c.cc, nil
}

// Exec executes an HQL script and returns its output. The ctx deadline is
// propagated to the server (which enforces it during execution) and
// bounds the whole call including backoff sleeps.
//
// Retry policy: "overloaded"/"quota"/"shutdown" replies are definitive
// not-executed signals and are always retried (with backoff, honoring
// Retry-After). Ambiguous failures — the connection died before a reply —
// are retried only when the script is read-only (hql.ReadOnly) or the
// client was built WithRetryNonIdempotent. Definitive statement failures
// ("exec", "deadline", "panic", …) are never retried. The script is parsed
// for that only when such a retry is to be decided, at most once per call.
func (c *Client) Exec(ctx context.Context, input string) (string, error) {
	return c.execRetry(ctx, wire.TypeExec, input, func() bool { return readOnlyScript(input) })
}

// readOnlyScript classifies a script for retry; a variable so tests can
// count the calls.
var readOnlyScript = hql.ReadOnlyScript

// ExecShard runs one shard operation and returns the shard's reply. The
// transport, deadline, and retry machinery is Exec's; only the frame type
// differs (EXECSHARD), and every shard operation is retried after a
// transport failure — reads are pure, and the 2PC verbs are gid-guarded on
// the participant.
func (c *Client) ExecShard(ctx context.Context, op wire.ShardOp) (wire.ShardReply, error) {
	out, err := c.execRetry(ctx, wire.TypeExecShard, string(wire.AppendShardOp(nil, op)), func() bool { return true })
	if err != nil {
		return wire.ShardReply{}, err
	}
	return wire.ParseShardReply([]byte(out))
}

// ShardMap asks the server for its shard identity. Answered inline (like
// PING), so it works against a saturated admission queue. Servers without a
// shard node answer ErrUnsupported.
func (c *Client) ShardMap(ctx context.Context) (id, count int, err error) {
	out, err := c.inline(ctx, wire.TypeShardMap)
	if err != nil {
		return 0, 0, err
	}
	return parseShardMap(out)
}

// parseShardMap decodes a SHARDMAP reply: exactly "<shard_id> <shard_count>".
func parseShardMap(out string) (id, count int, err error) {
	fields := strings.Fields(strings.TrimSpace(out))
	if len(fields) != 2 {
		return 0, 0, fmt.Errorf("%w: bad SHARDMAP reply %q", ErrProtocol, out)
	}
	id, err1 := strconv.Atoi(fields[0])
	count, err2 := strconv.Atoi(fields[1])
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("%w: bad SHARDMAP reply %q", ErrProtocol, out)
	}
	return id, count, nil
}

// execRetry is the shared retry loop behind Exec and ExecShard: typ names
// the request, idempotent gates retry after ambiguous transport failures.
// It is asked at most once, and only when such a failure leaves a retry to
// decide.
func (c *Client) execRetry(ctx context.Context, typ byte, input string, idempotent func() bool) (string, error) {
	asked, answer := false, false
	once := func() bool {
		if !asked {
			asked, answer = true, idempotent()
		}
		return answer
	}
	for attempt := 0; ; attempt++ {
		out, err := c.execOnce(ctx, typ, input)
		if err == nil {
			return out, nil
		}
		if attempt >= c.o.maxRetries || ctx.Err() != nil {
			return "", err
		}
		retryable, hint := c.classify(err, once)
		if !retryable {
			return "", err
		}
		if backoff.Sleep(ctx, c.backoff(attempt, hint)) != nil {
			return "", err
		}
	}
}

// execOnce runs one statement as a throwaway stream: a fresh stream id,
// end-of-stream flagged on the single request, the response correlated by
// id. Concurrent callers pipeline on the shared connection.
func (c *Client) execOnce(ctx context.Context, typ byte, input string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	cc, err := c.ensure()
	if err != nil {
		return "", err
	}
	return exec(ctx, cc, typ, wire.FlagEndStream, cc.NewStream(), input)
}

// exec runs one EXEC or EXECSHARD request on stream, carrying the ctx
// deadline to the server (which enforces it during execution).
func exec(ctx context.Context, cc *wire.Conn, typ, flags byte, stream uint32, input string) (string, error) {
	var timeout time.Duration
	if dl, ok := ctx.Deadline(); ok {
		timeout = time.Until(dl)
		if timeout <= 0 {
			return "", context.DeadlineExceeded
		}
	}
	out, err := cc.Do(ctx, typ, flags, stream, execPayload(timeout, input))
	return string(out), serverError(err)
}

// Ping performs a liveness round trip.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.inline(ctx, wire.TypePing)
	return err
}

// Stats fetches the server process's metrics in Prometheus text exposition
// format (the STATS request). It is answered inline by the connection's
// reader, so it works even when the server's admission queue is saturated.
func (c *Client) Stats(ctx context.Context) (string, error) {
	return c.inline(ctx, wire.TypeStats)
}

// inline performs one payload-less request answered inline by the server
// (PING, STATS, LAG, PROMOTE, SHARDMAP).
func (c *Client) inline(ctx context.Context, typ byte) (string, error) {
	cc, err := c.ensure()
	if err != nil {
		return "", err
	}
	out, err := cc.Do(ctx, typ, 0, 0, nil)
	return string(out), serverError(err)
}

// Stream is a logical sub-connection multiplexed over a Client's
// connection: statements on one Stream execute in order on one server-side
// session — so a transaction can span Exec calls — while other Streams
// (and plain Client.Exec calls) proceed concurrently on the same socket.
//
// A Stream does not retry: its statements are positional (a retried BEGIN
// or COMMIT on a fresh connection would not mean the same thing), so
// transport failures and server errors surface directly. A statement
// abandoned mid-execution (deadline, cancel) retires the stream server-side;
// subsequent Execs answer "canceled" and the caller should open a new
// Stream.
type Stream struct {
	cc *wire.Conn
	id uint32

	mu     sync.Mutex
	closed bool
}

// Stream opens a new logical stream on the client's connection.
func (c *Client) Stream() (*Stream, error) {
	cc, err := c.ensure()
	if err != nil {
		return nil, err
	}
	return &Stream{cc: cc, id: cc.NewStream()}, nil
}

// Exec runs one statement on the stream's server-side session. Calls are
// serialized per stream (FIFO is the point of a stream); the ctx deadline
// rides to the server like Client.Exec's.
func (st *Stream) Exec(ctx context.Context, input string) (string, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return "", ErrClientClosed
	}
	return exec(ctx, st.cc, wire.TypeExec, 0, st.id, input)
}

// Close disposes the stream's server-side session (fire-and-forget
// ENDSTREAM; no reply). Further Execs fail with ErrClientClosed.
func (st *Stream) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	return st.cc.EndStream(st.id)
}

// classify decides whether an error may be retried and extracts the
// server's backoff hint; idempotent is called only for a transport failure
// that the client's options do not already retry.
func (c *Client) classify(err error, idempotent func() bool) (retryable bool, hint time.Duration) {
	var se *ServerError
	if errors.As(err, &se) {
		switch se.Code {
		case codeOverloaded, codeShutdown, codeQuota:
			// Definitive not-executed: safe for any statement.
			return true, se.RetryAfter
		default:
			return false, 0
		}
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false, 0
	}
	// A locally closed client must not resurrect itself.
	if errors.Is(err, ErrClientClosed) || errors.Is(err, net.ErrClosed) {
		return false, 0
	}
	// Transport error: the request may or may not have executed.
	return c.o.retryAll || idempotent(), 0
}

// backoff returns the sleep before retry attempt+1: full jitter over an
// exponentially growing window, floored at the server's hint. The policy
// lives in internal/backoff and is shared with the replication follower's
// reconnect loop, so every reconnecting component paces identically.
func (c *Client) backoff(attempt int, hint time.Duration) time.Duration {
	return backoff.Policy{Base: c.o.baseBackoff, Max: c.o.maxBackoff}.Delay(attempt, hint)
}
