package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed fails every call on a Conn after Close, and every request or
// feed still open when Close ran.
var ErrClosed = errors.New("hrdb: client closed")

// ErrOverflow ends a Feed whose queue filled: the reader canceled it rather
// than wait for the consumer, who reopens it from the last frame queued.
var ErrOverflow = errors.New("wire: feed queue overflow")

// feedQueue and feedBytes bound what a Feed holds for its consumer: at most
// feedQueue frames, and no more than feedBytes of payload unless a frame
// arrives at an empty queue. The queue only has to ride out a consumer's
// scheduling delays: one that stays behind is cheaper to resume from its
// position than to buffer for.
const (
	feedQueue = 64
	feedBytes = 8 << 20
)

// Conn is the client half of one framed connection after its HELLO: a
// writer shared by all requests, a frame per Write, and one reader goroutine
// that hands every response frame to the request its id names — the single
// OK or ERR a Do waits for, or the SUB, SHIP, HB and ROTATE frames of a
// Feed and the ERR that ends it. Callers pipeline freely; responses arrive
// in completion order.
type Conn struct {
	c   net.Conn
	br  *bufio.Reader
	max int // payload bound of Do replies and unclaimed frames; caps every Feed's

	wmu        sync.Mutex // serializes frame writes
	nextID     atomic.Uint64
	nextStream atomic.Uint32

	mu      sync.Mutex
	err     error // terminal failure; nil while healthy
	closed  bool  // Close ran locally
	pending map[uint64]*Feed
}

// DialConn runs Dial and starts the connection's reader, which accepts
// frames with payloads up to maxFrame bytes (or the bound a stream request
// set, if lower). It also returns the namespace the server resolved.
func DialConn(ctx context.Context, addr string, timeout time.Duration, tenant string, maxFrame int) (*Conn, string, error) {
	c, br, resolved, err := Dial(ctx, addr, timeout, tenant)
	if err != nil {
		return nil, "", err
	}
	return newConn(c, br, maxFrame), resolved, nil
}

// newConn wraps a connection whose HELLO succeeded and starts its reader.
func newConn(c net.Conn, br *bufio.Reader, maxFrame int) *Conn {
	cc := &Conn{c: c, br: br, max: maxFrame, pending: make(map[uint64]*Feed)}
	go cc.readLoop()
	return cc
}

// Alive reports whether the connection can still carry requests.
func (cc *Conn) Alive() bool {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.err == nil
}

// NewStream allocates a logical stream id for the frame header.
func (cc *Conn) NewStream() uint32 { return cc.nextStream.Add(1) }

// Close closes the connection: every outstanding request and feed fails
// with ErrClosed. Safe to call multiple times and concurrently with
// in-flight requests — that is the point.
func (cc *Conn) Close() error {
	cc.mu.Lock()
	cc.closed = true
	cc.mu.Unlock()
	// A best-effort goodbye; the server may hang up first and the reader
	// close the socket before this call does, which is still a clean close.
	cc.write(Frame{Type: TypeGoodbye, ID: cc.nextID.Add(1)})
	if err := cc.c.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// fail poisons the connection, ends every pending request, and returns the
// terminal error: the first one, or ErrClosed after a local Close.
func (cc *Conn) fail(err error) error {
	cc.mu.Lock()
	if cc.closed {
		err = ErrClosed
	}
	if cc.err == nil {
		cc.err = err
	}
	err = cc.err
	for _, fd := range cc.pending {
		fd.stopLocked(err)
	}
	cc.pending = nil
	cc.mu.Unlock()
	cc.c.Close()
	return err
}

// readLoop routes frames until the connection dies.
func (cc *Conn) readLoop() {
	for {
		f, err := readFrame(cc.br, cc.max, cc.bound)
		if err == nil {
			err = cc.route(f)
		}
		if err != nil {
			cc.fail(err)
			return
		}
	}
}

// bound returns the payload bound of f's request, which the reader checks
// before it reads the payload.
func (cc *Conn) bound(f Frame) int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if fd := cc.pending[f.ID]; fd != nil {
		return fd.max
	}
	return cc.max
}

// route hands one frame to its request. A reply for a forgotten id (a
// canceled request) is dropped, and so is a frame of a feed already
// stopped; a stream frame for an id that opened no feed, an OK for one
// that did, or a frame that is no response at all desyncs the connection.
func (cc *Conn) route(f Frame) error {
	cc.mu.Lock()
	fd := cc.pending[f.ID]
	var err error
	switch f.Type {
	case TypeOK:
		if fd != nil && fd.stream {
			err = fmt.Errorf("%w: OK frame for feed %d", ErrProtocol, f.ID)
		}
	case TypeErr:
	case TypeSub, TypeShip, TypeHB, TypeRotate:
		if fd == nil || !fd.stream {
			err = fmt.Errorf("%w: stream frame type 0x%02x for request %d, which opened no feed", ErrProtocol, f.Type, f.ID)
		}
	default:
		err = fmt.Errorf("%w: unexpected response frame type 0x%02x", ErrProtocol, f.Type)
	}
	if err != nil || fd == nil {
		cc.mu.Unlock()
		return err
	}
	if f.Type == TypeOK || f.Type == TypeErr {
		delete(cc.pending, f.ID) // a request's last frame
	}
	cancel := false
	if !fd.stopped {
		if n := len(fd.q); n < cap(fd.q) && (n == 0 || fd.queued.Load()+int64(len(f.Payload)) <= feedBytes) {
			fd.queued.Add(int64(len(f.Payload)))
			fd.q <- f
		} else {
			fd.stopLocked(ErrOverflow)
			cancel = f.Type != TypeErr // an ended feed has nothing to cancel
		}
	}
	cc.mu.Unlock()
	if cancel {
		// Off the reader: a writer stalled on a full socket holds wmu, and
		// the reader must keep draining the server so that it can proceed.
		// The write ends when the socket takes it or closes.
		go cc.write(Frame{Type: TypeCancel, ID: f.ID})
	}
	return nil
}

// write sends one frame.
func (cc *Conn) write(f Frame) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	return WriteFrame(cc.c, f)
}

// open sends f under a fresh id and returns the Feed its answer arrives
// on: the frames of a stream request, each with a payload of at most max
// bytes, or the one reply of any other.
func (cc *Conn) open(f Frame, stream bool, max int) (*Feed, error) {
	size := 1
	if stream {
		size = feedQueue
	}
	fd := &Feed{cc: cc, id: cc.nextID.Add(1), stream: stream, max: min(max, cc.max), q: make(chan Frame, size)}
	f.ID = fd.id
	cc.mu.Lock()
	if cc.err != nil {
		err := cc.err
		cc.mu.Unlock()
		return nil, err
	}
	cc.pending[fd.id] = fd
	cc.mu.Unlock()
	if err := cc.write(f); err != nil {
		return nil, cc.fail(err)
	}
	return fd, nil
}

// Do performs one pipelined round trip and returns the OK payload, or the
// *Error its ERR carries. On ctx expiry it fires a best-effort CANCEL and
// returns the ctx error — the connection stays usable for everyone else.
func (cc *Conn) Do(ctx context.Context, typ, flags byte, stream uint32, payload []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	fd, err := cc.open(Frame{Type: typ, Flags: flags, Stream: stream, Payload: payload}, false, cc.max)
	if err != nil {
		return nil, err
	}
	f, err := fd.Next(ctx)
	if err != nil {
		fd.Close()
		return nil, err
	}
	return Reply(f)
}

// EndStream disposes a logical stream's server-side session
// (fire-and-forget ENDSTREAM; no reply).
func (cc *Conn) EndStream(stream uint32) error {
	return cc.write(Frame{Type: TypeEndStream, ID: cc.nextID.Add(1), Stream: stream})
}

// Open sends a request answered by a stream of frames — SUBSCRIBE or REPL
// — and returns the Feed they arrive on. A frame of the stream announcing a
// payload over maxFrame bytes (or the connection's bound) ends the
// connection with ErrTooLarge before its payload is read.
func (cc *Conn) Open(typ byte, payload []byte, maxFrame int) (*Feed, error) {
	return cc.open(Frame{Type: typ, Payload: payload}, true, maxFrame)
}

// Feed is one request's answer on a Conn; for SUBSCRIBE or REPL, its
// frames up to the one ERR that ends it. A full queue — feedQueue frames or
// feedBytes of payload — cancels the feed (ErrOverflow) rather than make
// the reader wait.
type Feed struct {
	cc     *Conn
	id     uint64
	stream bool         // SUBSCRIBE or REPL, not Do's single reply
	max    int          // payload bound of its frames
	q      chan Frame   // closed, under cc.mu, when the feed stops
	queued atomic.Int64 // payload bytes in q

	// Guarded by cc.mu.
	stopped bool
	err     error // why q closed; set before closing it
}

// stopLocked ends delivery with err. Callers hold fd.cc.mu.
func (fd *Feed) stopLocked(err error) {
	if !fd.stopped {
		fd.stopped = true
		fd.err = err
		close(fd.q)
	}
}

// Next returns the feed's next frame (an ERR is its last). It returns the
// ctx error on expiry (the feed stays open), and once the frames queued
// before the feed stopped are delivered, why it stopped: ErrClosed after a
// local Close, ErrOverflow, or the connection's failure.
func (fd *Feed) Next(ctx context.Context) (Frame, error) {
	select {
	case f, ok := <-fd.q:
		if !ok {
			return Frame{}, fd.err
		}
		fd.queued.Add(-int64(len(f.Payload)))
		return f, nil
	case <-ctx.Done():
		return Frame{}, ctx.Err()
	}
}

// Send writes one frame on the feed's request id (a follower's ACK).
func (fd *Feed) Send(typ byte, payload []byte) error {
	return fd.cc.write(Frame{Type: typ, ID: fd.id, Payload: payload})
}

// Close ends the feed: Next returns ErrClosed once the queue is drained,
// and a request the server is still answering is canceled (its remaining
// frames are dropped).
func (fd *Feed) Close() {
	cc := fd.cc
	cc.mu.Lock()
	live := cc.pending[fd.id] == fd && !fd.stopped
	fd.stopLocked(ErrClosed)
	cc.mu.Unlock()
	if live {
		cc.write(Frame{Type: TypeCancel, ID: fd.id})
	}
}
