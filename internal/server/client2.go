package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hrdb/internal/wire"
)

// conn2 is one client connection after its HELLO: a writer shared by all
// requests (frame-at-a-time), a reader goroutine that routes response
// frames to waiters by request id, and the waiter table itself. Callers
// pipeline freely; responses arrive in completion order.
type conn2 struct {
	c           net.Conn
	br          *bufio.Reader
	maxResponse int

	wmu        sync.Mutex // serializes frame writes
	nextID     atomic.Uint64
	nextStream atomic.Uint32

	mu      sync.Mutex
	err     error // terminal failure; nil while healthy
	closed  bool  // close() ran locally
	waiters map[uint64]chan wire.Frame
}

// newConn2 wraps a connection whose HELLO succeeded and starts its reader.
func newConn2(c net.Conn, br *bufio.Reader, maxResponse int) *conn2 {
	cc := &conn2{c: c, br: br, maxResponse: maxResponse, waiters: make(map[uint64]chan wire.Frame)}
	go cc.readLoop()
	return cc
}

// alive reports whether the connection can still carry requests.
func (cc *conn2) alive() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err == nil
}

// close is the local Close: closing the socket makes the reader fail every
// outstanding waiter with ErrClientClosed. Safe to call multiple times and
// concurrently with in-flight requests — that is the point.
func (cc *conn2) close() error {
	cc.mu.Lock()
	cc.closed = true
	cc.mu.Unlock()
	// Best-effort goodbye so the server tears the connection down without
	// logging a read error; the close below is what actually ends things.
	cc.write(wire.Frame{Type: wire.TypeGoodbye, ID: cc.nextID.Add(1)})
	// The goodbye can make the server hang up first, and the reader then
	// closes the socket before this call does; that is still a clean close.
	if err := cc.c.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// fail poisons the connection and wakes every waiter. The first terminal
// error wins; a locally closed connection always reports ErrClientClosed.
func (cc *conn2) fail(err error) {
	cc.mu.Lock()
	if cc.closed {
		err = ErrClientClosed
	}
	if cc.err == nil {
		cc.err = err
	}
	ws := cc.waiters
	cc.waiters = make(map[uint64]chan wire.Frame)
	cc.mu.Unlock()
	cc.c.Close()
	for _, ch := range ws {
		close(ch) // closed channel = transport failure; see do()
	}
}

// lastErr returns the terminal error (ErrClientClosed after a local
// close).
func (cc *conn2) lastErr() error {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.err != nil {
		return cc.err
	}
	return fmt.Errorf("%w: connection failed", ErrProtocol)
}

// readLoop routes response frames to their waiters until the connection
// dies. Responses for forgotten ids (canceled requests) are dropped; a
// frame that is not a response desyncs the connection.
func (cc *conn2) readLoop() {
	for {
		f, err := wire.ReadFrame(cc.br, cc.maxResponse)
		if err == nil && f.Type != wire.TypeOK && f.Type != wire.TypeErr {
			err = fmt.Errorf("%w: unexpected response frame type 0x%02x", ErrProtocol, f.Type)
		}
		if err != nil {
			cc.fail(err)
			return
		}
		cc.mu.Lock()
		ch := cc.waiters[f.ID]
		delete(cc.waiters, f.ID)
		cc.mu.Unlock()
		if ch != nil {
			ch <- f // buffered; never blocks the reader
		}
	}
}

// forget deregisters a waiter; reports whether it was still registered.
func (cc *conn2) forget(id uint64) bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if _, ok := cc.waiters[id]; !ok {
		return false
	}
	delete(cc.waiters, id)
	return true
}

// write sends one frame.
func (cc *conn2) write(f wire.Frame) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	return wire.WriteFrame(cc.c, f)
}

// do performs one pipelined round trip: register a waiter, send the frame,
// wait for the correlated response, and return its OK payload or the
// *ServerError it carries. On ctx expiry it deregisters, fires a
// best-effort CANCEL, and returns the ctx error — the connection stays
// usable for everyone else.
func (cc *conn2) do(ctx context.Context, typ, flags byte, stream uint32, payload []byte) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	id := cc.nextID.Add(1)
	ch := make(chan wire.Frame, 1)
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		return "", err
	}
	cc.waiters[id] = ch
	cc.mu.Unlock()

	if err := cc.write(wire.Frame{Type: typ, Flags: flags, ID: id, Stream: stream, Payload: payload}); err != nil {
		cc.forget(id)
		cc.fail(err)
		return "", cc.lastErr()
	}
	select {
	case f, ok := <-ch:
		if !ok {
			return "", cc.lastErr()
		}
		out, err := wire.Reply(f)
		return string(out), serverError(err)
	case <-ctx.Done():
		if cc.forget(id) {
			cc.write(wire.Frame{Type: wire.TypeCancel, ID: id, Stream: stream})
		}
		return "", ctx.Err()
	}
}

// exec runs one EXEC or EXECSHARD request on stream, carrying the ctx
// deadline to the server (which enforces it during execution).
func (cc *conn2) exec(ctx context.Context, typ, flags byte, stream uint32, input string) (string, error) {
	var timeout time.Duration
	if dl, ok := ctx.Deadline(); ok {
		timeout = time.Until(dl)
		if timeout <= 0 {
			return "", context.DeadlineExceeded
		}
	}
	return cc.do(ctx, typ, flags, stream, execPayload(timeout, input))
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
	cc *conn2
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
	return &Stream{cc: cc, id: cc.nextStream.Add(1)}, nil
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
	return st.cc.exec(ctx, wire.TypeExec, 0, st.id, input)
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
	return st.cc.write(wire.Frame{Type: wire.TypeEndStream, ID: st.cc.nextID.Add(1), Stream: st.id})
}
