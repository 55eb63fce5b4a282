package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"hrdb/internal/backoff"
	"hrdb/internal/wire"
)

// This file is the server's change-feed surface and its client. The server
// knows nothing about view maintenance: it decodes the SUBSCRIBE request
// and delegates to a pluggable hook (Options.Subscribe), so the dependency
// points from internal/view — which implements it — into the wire contract,
// never back. Each change of a feed rides in one SUB frame correlated by
// request id (wire.Change), and one ERR frame ends the feed.

// SubscribeSource serves change feeds to subscribers. Implemented by
// view.Manager.
type SubscribeSource interface {
	// ServeFeed streams the named view's (or relation's) feed through
	// send, one change per call. Without resume it opens with a full
	// snapshot; with resume it replays exactly the committed deltas after
	// (epoch, offset). It returns nil when ctx is canceled, send's error
	// when a send fails, and otherwise why the feed ended — an error
	// wrapping wire.ErrFeedNotFound, ErrFeedStale, ErrFeedDropped or
	// ErrFeedClosed.
	ServeFeed(ctx context.Context, name string, epoch uint64, offset int64, resume bool, send func(wire.Change) error) error
}

// subscribePayload encodes a SUBSCRIBE frame payload:
// u8 resume | u64 epoch | u64 offset | name bytes.
func subscribePayload(name string, epoch uint64, offset int64, resume bool) []byte {
	p := make([]byte, 0, 17+len(name))
	var r byte
	if resume {
		r = 1
	}
	p = append(p, r)
	p = binary.BigEndian.AppendUint64(p, epoch)
	p = binary.BigEndian.AppendUint64(p, uint64(offset))
	return append(p, name...)
}

// parseSubscribePayload decodes a SUBSCRIBE frame payload.
func parseSubscribePayload(p []byte) (name string, epoch uint64, offset int64, resume bool, err error) {
	if len(p) < 17 {
		return "", 0, 0, false, fmt.Errorf("%w: SUBSCRIBE payload %d bytes, want ≥ 17", ErrProtocol, len(p))
	}
	offset = int64(binary.BigEndian.Uint64(p[9:17]))
	if offset < 0 {
		return "", 0, 0, false, fmt.Errorf("%w: negative SUBSCRIBE offset", ErrProtocol)
	}
	return string(p[17:]), binary.BigEndian.Uint64(p[1:9]), offset, p[0] != 0, nil
}

// subscribe handles one SUBSCRIBE frame: the feed runs in its own
// goroutine, pushing SUB frames through the shared writer, so the reader
// loop (and every other stream) keeps going. It reports whether the
// connection may continue (a malformed payload or duplicate id desyncs the
// conversation and closes it).
//
// A draining server refuses to start a feed — Shutdown closes the store
// (and the view manager) after the drain, and a feed admitted during it
// would race that close. Feeds already running end when Shutdown retires
// their connections (teardown cancels them), so the drain is never held up
// by an idle subscriber. Feeds follow the default namespace's views only.
func (m *muxConn) subscribe(f wire.Frame) bool {
	s := m.srv
	name, epoch, offset, resume, err := parseSubscribePayload(f.Payload)
	if err != nil {
		m.send(errFrame(f.ID, f.Stream, codeProto, 0, err.Error()))
		return false
	}
	if s.opts.Subscribe == nil {
		m.send(errFrame(f.ID, f.Stream, codeUnsupported, 0, "subscriptions not enabled"))
		return true
	}
	if !m.defaultOnly(f, "SUBSCRIBE") {
		return true
	}
	if s.drainingNow() {
		m.send(errFrame(f.ID, f.Stream, codeShutdown, 0, "server draining"))
		return true
	}
	ctx, cancel := context.WithCancel(context.Background())
	m.mu.Lock()
	if _, dup := m.byID[f.ID]; dup {
		m.mu.Unlock()
		cancel()
		m.send(errFrame(f.ID, f.Stream, codeProto, 0, "duplicate request id"))
		return false
	}
	m.byID[f.ID] = &muxTask{id: f.ID, stream: f.Stream, cancel: cancel}
	m.mu.Unlock()

	metricSubStarted.Inc()
	metricSubStreams.Inc()
	m.feeds.Add(1)
	go func() {
		defer m.feeds.Done()
		defer metricSubStreams.Dec()
		err := s.opts.Subscribe.ServeFeed(ctx, name, epoch, offset, resume, func(c wire.Change) error {
			p, err := wire.ChangePayload(c)
			if err != nil {
				return err
			}
			return m.send(wire.Frame{Type: wire.TypeSub, ID: f.ID, Stream: f.Stream, Payload: p})
		})
		cancel()
		m.mu.Lock()
		delete(m.byID, f.ID)
		m.mu.Unlock()
		code, msg := feedEnd(err)
		m.send(errFrame(f.ID, f.Stream, code, 0, msg))
	}()
	return true
}

// feedEnd maps why a feed ended to the code and message of the one ERR
// frame that ends it.
func feedEnd(err error) (Code, string) {
	switch {
	case err == nil:
		return codeCanceled, "subscription ended"
	case errors.Is(err, wire.ErrFeedNotFound):
		return codeNotFound, err.Error()
	case errors.Is(err, wire.ErrFeedDropped):
		return codeDropped, err.Error()
	case errors.Is(err, wire.ErrFeedStale):
		return codeStale, err.Error()
	case errors.Is(err, wire.ErrFeedClosed):
		return codeShutdown, err.Error()
	default:
		return codeExec, err.Error()
	}
}

// SubChange is one change delivered by a Subscription. A "snapshot" change
// carries the feed's full row set and resets any state the consumer keeps;
// a "delta" carries incremental row changes to apply on top. Epoch/Offset
// is the resumable position after applying the change. Subscription.Next
// consumes heartbeats itself.
type SubChange = wire.Change

// Subscription is a client-side change feed over its own dedicated
// connection (feeds are long-lived; a dedicated connection keeps their
// frames from queueing behind, or ahead of, the client's replies). It reconnects automatically: after a
// severed connection or a server restart, Next resumes from the last
// delivered position, so the caller sees exactly the committed changes,
// gap- and duplicate-free. When the server can no longer serve that
// position (the retained journal was trimmed) the feed transparently
// restarts with a fresh "snapshot" change.
//
// Next and Close may be called from different goroutines; Next itself is
// not reentrant.
type Subscription struct {
	addr string
	name string
	o    dialConfig

	reqMu sync.Mutex // serializes Next

	mu     sync.Mutex // guards conn identity and closed (Close vs Next)
	conn   net.Conn
	closed bool

	// Connection-epoch state, used only under reqMu.
	br *bufio.Reader

	havePos bool
	epoch   uint64
	offset  int64
	attempt int
}

// Subscribe opens a change feed over the named view (or relation),
// starting with a full snapshot. The feed uses a dedicated connection,
// opened with the client's own HELLO (tenant included); it is lazy — the
// first Next dials.
func (c *Client) Subscribe(name string) (*Subscription, error) {
	return c.subscribe(name, 0, 0, false)
}

// SubscribeFrom opens a change feed resuming after a previously delivered
// position: only committed changes after (epoch, offset) are delivered. A
// position the server no longer retains restarts the feed with a fresh
// snapshot, exactly like a reconnect-time stale position.
func (c *Client) SubscribeFrom(name string, epoch uint64, offset int64) (*Subscription, error) {
	return c.subscribe(name, epoch, offset, true)
}

func (c *Client) subscribe(name string, epoch uint64, offset int64, resume bool) (*Subscription, error) {
	if name == "" || strings.ContainsAny(name, " \t\r\n") {
		return nil, fmt.Errorf("%w: bad feed name %q", ErrProtocol, name)
	}
	if c.isClosed() {
		return nil, ErrClientClosed
	}
	return &Subscription{
		addr:    c.addr,
		name:    name,
		o:       c.o,
		havePos: resume,
		epoch:   epoch,
		offset:  offset,
	}, nil
}

// Close severs the feed's connection and retires the subscription. A
// blocked Next returns ErrClientClosed.
func (sub *Subscription) Close() error {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.closed {
		return nil
	}
	sub.closed = true
	if sub.conn != nil {
		sub.conn.Close()
		sub.conn = nil
	}
	return nil
}

// install registers a new connection unless the subscription was closed
// meanwhile.
func (sub *Subscription) install(conn net.Conn) error {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.closed {
		conn.Close()
		return ErrClientClosed
	}
	sub.conn = conn
	return nil
}

// drop discards the current connection.
func (sub *Subscription) drop() {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.conn != nil {
		sub.conn.Close()
		sub.conn = nil
	}
	sub.br = nil
}

func (sub *Subscription) isClosed() bool {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.closed
}

func (sub *Subscription) current() net.Conn {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.conn
}

// Next blocks until the feed delivers the next change. Heartbeats are
// consumed internally (they advance the resume position); reconnects with
// backoff are transparent. It returns the ctx error on expiry (the feed
// resumes on the following call), ErrClientClosed after Close, and a
// terminal *ServerError when the feed cannot continue — the name is
// unknown (ErrFeedNotFound), the view was dropped (ErrFeedDropped), or the
// server refused the subscription outright (e.g. ErrUnsupported).
func (sub *Subscription) Next(ctx context.Context) (SubChange, error) {
	sub.reqMu.Lock()
	defer sub.reqMu.Unlock()
	for {
		if sub.isClosed() {
			return SubChange{}, ErrClientClosed
		}
		if err := ctx.Err(); err != nil {
			return SubChange{}, err
		}
		if sub.current() == nil {
			if err := sub.connect(ctx); err != nil {
				if terminal, werr := sub.setback(ctx, err); terminal {
					return SubChange{}, werr
				}
				continue
			}
		}
		ch, err := sub.readChange(ctx)
		var se *ServerError
		switch {
		case errors.As(err, &se) && se.Code == codeStale:
			// The journal no longer covers our position: restart fresh. The
			// next change is a full snapshot, which resets the consumer's
			// state, so nothing is silently lost.
			sub.drop()
			sub.havePos = false
		case err != nil:
			sub.drop()
			if terminal, werr := sub.setback(ctx, err); terminal {
				return SubChange{}, werr
			}
		default:
			sub.markPos(ch.Epoch, ch.Offset)
			if ch.Kind != wire.ChangeHeartbeat {
				return ch, nil
			}
		}
	}
}

// markPos records a delivered position and resets the reconnect backoff (a
// healthy frame proves the feed is live).
func (sub *Subscription) markPos(epoch uint64, offset int64) {
	sub.havePos = true
	sub.epoch = epoch
	sub.offset = offset
	sub.attempt = 0
}

// setback classifies an error and sleeps the backoff when it is worth
// retrying. Terminal errors (and ctx expiry during the sleep) stop Next.
func (sub *Subscription) setback(ctx context.Context, err error) (terminal bool, out error) {
	if sub.isClosed() {
		return true, ErrClientClosed
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		return true, ctxErr
	}
	var hint time.Duration
	if se, ok := err.(*ServerError); ok {
		switch se.Code {
		case codeShutdown, codeOverloaded, codeQuota, codeCanceled:
			// Not executed, or the source is closing (restart, failover):
			// reconnect and resume.
			hint = se.RetryAfter
		default:
			// unsupported, tenant, proto, notfound, dropped, …: retrying
			// cannot help.
			return true, err
		}
	}
	delay := backoff.Policy{Base: sub.o.baseBackoff, Max: sub.o.maxBackoff}.Delay(sub.attempt, hint)
	sub.attempt++
	if serr := backoff.Sleep(ctx, delay); serr != nil {
		return true, serr
	}
	return false, nil
}

// connect dials a fresh connection and sends the SUBSCRIBE request
// (resuming from the last delivered position when one is known).
// Acceptance is implicit: the first frame back is either SUB (feed
// running) or ERR (refused), handled by readChange.
func (sub *Subscription) connect(ctx context.Context) error {
	conn, br, _, err := wire.Dial(ctx, sub.addr, sub.o.dialTimeout, sub.o.tenant)
	if err != nil {
		return serverError(err)
	}
	if err := sub.install(conn); err != nil {
		return err
	}
	sub.br = br

	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	f := wire.Frame{Type: wire.TypeSubscribe, ID: 1, Stream: 1,
		Payload: subscribePayload(sub.name, sub.epoch, sub.offset, sub.havePos)}
	if err := wire.WriteFrame(conn, f); err != nil {
		sub.drop()
		return err
	}
	return nil
}

// readChange returns the next change on the current connection; the ERR
// frame that ends a feed comes back as its *ServerError. A ctx expiry
// severs the connection (the next call reconnects and resumes, so nothing
// is lost).
func (sub *Subscription) readChange(ctx context.Context) (SubChange, error) {
	conn := sub.current()
	if conn == nil {
		return SubChange{}, ErrClientClosed
	}
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	f, err := wire.ReadFrame(sub.br, sub.o.maxResponse)
	if err != nil {
		return SubChange{}, err
	}
	if f.Type != wire.TypeSub {
		_, err := wire.Reply(f)
		if err == nil {
			err = fmt.Errorf("%w: unexpected OK frame on a feed", ErrProtocol)
		}
		return SubChange{}, serverError(err)
	}
	return wire.ParseChange(f.Payload)
}
