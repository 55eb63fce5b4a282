package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"

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

// subscribe handles one SUBSCRIBE frame: the feed runs as one of the
// connection's long-lived streams (see openStream). It reports whether the
// connection may continue (a malformed payload or duplicate id desyncs the
// conversation and closes it). Feeds follow the default namespace's views
// only.
func (m *muxConn) subscribe(f wire.Frame) bool {
	s := m.srv
	name, epoch, offset, resume, err := parseSubscribePayload(f.Payload)
	if err != nil {
		m.send(errFrame(f.ID, f.Stream, codeProto, 0, err.Error()))
		return false
	}
	if !m.hooked(f, s.opts.Subscribe != nil, "SUBSCRIBE", "subscriptions not enabled") {
		return true
	}
	return m.openStream(f, false, func(ctx context.Context, send func(typ byte, payload []byte) error) error {
		metricSubStarted.Inc()
		metricSubStreams.Inc()
		defer metricSubStreams.Dec()
		return s.opts.Subscribe.ServeFeed(ctx, name, epoch, offset, resume, func(c wire.Change) error {
			p, err := wire.ChangePayload(c)
			if err != nil {
				return err
			}
			return send(wire.TypeSub, p)
		})
	})
}

// feedEnd maps why a feed or a REPL stream ended to the code and message
// of the one ERR frame that ends it. A REPL whose position is unservable,
// or whose primary was deposed, ends wrapping wire.ErrFeedStale.
func feedEnd(err error) (Code, string) {
	switch {
	case err == nil:
		return codeCanceled, "subscription ended"
	case errors.Is(err, context.Canceled):
		return codeCanceled, err.Error()
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

// Subscription is a client-side change feed riding its Client's one
// connection. After the Client reconnects (a severed connection, a server
// restart), or after its queue overflowed because Next was not called for
// a while, Next re-subscribes from the last delivered position, so the
// caller sees exactly the committed changes, gap- and duplicate-free. A
// position the server no longer retains restarts the feed with a fresh
// "snapshot" change.
//
// Next and Close may be called from different goroutines; Next itself is
// not reentrant.
type Subscription struct {
	c    *Client
	name string

	reqMu sync.Mutex // serializes Next

	mu     sync.Mutex // guards feed and closed (Close vs Next)
	feed   *wire.Feed
	closed bool

	// Resume state, used only under reqMu.
	havePos bool
	epoch   uint64
	offset  int64
	attempt int
}

// Subscribe opens a change feed over the named view (or relation),
// starting with a full snapshot. It is lazy: the first Next sends the
// SUBSCRIBE request on the client's connection.
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
	return &Subscription{c: c, name: name, havePos: resume, epoch: epoch, offset: offset}, nil
}

// Close cancels the feed and retires the subscription. A blocked Next
// returns ErrClientClosed; the Client and its connection stay open.
func (sub *Subscription) Close() error {
	sub.mu.Lock()
	sub.closed = true
	sub.mu.Unlock()
	sub.swap(nil)
	return nil
}

// swap closes the current feed and installs fd (nil: none). Once the
// subscription is closed it refuses, closing fd.
func (sub *Subscription) swap(fd *wire.Feed) bool {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.feed != nil {
		sub.feed.Close()
	}
	sub.feed = nil
	if sub.closed {
		if fd != nil {
			fd.Close()
		}
		return false
	}
	sub.feed = fd
	return true
}

// open returns the open feed, or sends SUBSCRIBE on the client's live
// connection — reconnecting it if needed — resuming from the last
// delivered position when one is known. Acceptance is implicit: the first
// frame back is either SUB (feed running) or ERR (refused).
func (sub *Subscription) open() (*wire.Feed, error) {
	sub.mu.Lock()
	closed, fd := sub.closed, sub.feed
	sub.mu.Unlock()
	if closed {
		return nil, ErrClientClosed
	}
	if fd != nil {
		return fd, nil
	}
	cc, err := sub.c.ensure()
	if err != nil {
		return nil, err
	}
	if fd, err = cc.Open(wire.TypeSubscribe, subscribePayload(sub.name, sub.epoch, sub.offset, sub.havePos), sub.c.o.maxResponse); err != nil {
		return nil, err
	}
	if !sub.swap(fd) {
		return nil, ErrClientClosed
	}
	return fd, nil
}

// Next blocks until the feed delivers the next change. Heartbeats are
// consumed internally (they advance the resume position); re-subscribes
// are transparent. It returns the ctx error on expiry (the feed stays
// open), ErrClientClosed after Close or the Client's Close, and a terminal
// *ServerError when the feed cannot continue — the name is unknown
// (ErrFeedNotFound), the view was dropped (ErrFeedDropped), or the server
// refused the subscription outright (e.g. ErrUnsupported).
func (sub *Subscription) Next(ctx context.Context) (SubChange, error) {
	sub.reqMu.Lock()
	defer sub.reqMu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return SubChange{}, err
		}
		fd, err := sub.open()
		var ch SubChange
		if err == nil {
			ch, err = readChange(ctx, fd)
		}
		var se *ServerError
		switch {
		case err == nil:
			// A healthy frame proves the feed is live: reset the backoff.
			sub.havePos, sub.epoch, sub.offset, sub.attempt = true, ch.Epoch, ch.Offset, 0
			if ch.Kind != wire.ChangeHeartbeat {
				return ch, nil
			}
		case ctx.Err() != nil && errors.Is(err, ctx.Err()):
			return SubChange{}, err
		case errors.As(err, &se) && se.Code == codeStale:
			// The journal no longer covers our position: restart fresh. The
			// next change is a full snapshot, which resets the consumer's
			// state, so nothing is silently lost.
			sub.swap(nil)
			sub.havePos = false
		case errors.Is(err, wire.ErrOverflow):
			// Every queued change was delivered: re-subscribe at once from
			// the last one.
			sub.swap(nil)
		default:
			sub.swap(nil)
			if err := sub.setback(ctx, err); err != nil {
				return SubChange{}, err
			}
		}
	}
}

// setback sleeps the backoff before a re-subscribe when err is worth one,
// as the Client's retry policy judges an idempotent request — a feed the
// server canceled (restart, failover) resumes too — and otherwise returns
// the error that stops Next (ErrClientClosed once Close closed the feed).
func (sub *Subscription) setback(ctx context.Context, err error) error {
	retry, hint := sub.c.classify(err, true)
	var se *ServerError
	if !retry && !(errors.As(err, &se) && se.Code == codeCanceled) {
		return err
	}
	delay := sub.c.backoff(sub.attempt, hint)
	sub.attempt++
	return backoff.Sleep(ctx, delay)
}

// readChange returns the feed's next change; the ERR frame that ends a
// feed comes back as its *ServerError.
func readChange(ctx context.Context, fd *wire.Feed) (SubChange, error) {
	f, err := fd.Next(ctx)
	if err != nil {
		return SubChange{}, err
	}
	if f.Type != wire.TypeSub {
		_, err := wire.Reply(f)
		return SubChange{}, serverError(err)
	}
	return wire.ParseChange(f.Payload)
}
