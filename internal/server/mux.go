package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"hrdb/internal/hql"
	"hrdb/internal/obs"
	"hrdb/internal/storage"
	"hrdb/internal/wire"
)

// This file is the server's connection loop: after the HELLO exchange,
// serveMux owns the connection and multiplexes many logical streams over
// it. The concurrency model:
//
//   - The reader goroutine (serveMux's loop) decodes frames and never
//     blocks on execution: EXEC frames are queued per stream.
//   - Each stream is a FIFO over one private hql.Session — at most one of
//     its statements is in the worker pool at a time, preserving the
//     session's single-goroutine contract while distinct streams run
//     concurrently.
//   - An admitted statement gets an await goroutine that writes the reply
//     when the worker finishes (or the deadline fires) and then advances
//     the stream. Await goroutines are bounded by admission capacity
//     (Workers + QueueDepth), not by client appetite.
//   - A SUBSCRIBE feed or a REPL stream is one more outstanding id: a
//     goroutine sends its frames until CANCEL or teardown, then one ERR.
//   - Replies go through one mutex-guarded writer, a frame per Write
//     call, so responses interleave at frame granularity in completion
//     order.
//
// When a deadline or cancellation abandons a statement that may still be
// executing, only its stream is retired — queued statements behind it
// answer "canceled", other streams never notice.

// maxFreeSessions caps a connection's pool of reusable sessions from
// cleanly ended one-shot streams.
const maxFreeSessions = 8

// muxTask is one outstanding request id: an EXEC frame travelling through
// its stream's FIFO, or — with t nil — a live SUBSCRIBE feed or REPL
// stream.
type muxTask struct {
	id     uint64
	stream uint32
	// cancel aborts the statement or ends the feed (CANCEL, teardown).
	cancel context.CancelFunc
	acks   bool // a REPL stream: its ACK frames go to Options.Repl
	end    bool // FlagEndStream: dispose the stream after this reply
	// started flips (under muxConn.mu) when the task leaves the FIFO for
	// submission; CANCEL uses it to tell "still queued" from "in the pool".
	started bool
	t       *task
	start   time.Time
}

// muxStream is one logical sub-connection: a FIFO of tasks over a private
// session. dead marks a retired stream — its session may still be
// executing an abandoned statement, so nothing runs on it again; the
// tombstone stays in the stream table so late frames answer deterministically.
type muxStream struct {
	id      uint32
	sess    *hql.Session
	queue   []*muxTask
	running bool // a task of this stream is submitted (or being submitted)
	dead    bool
}

// muxConn is the per-connection state.
type muxConn struct {
	srv *Server
	tn  *tenantState
	c   net.Conn

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	streams map[uint32]*muxStream
	// byID is the connection's one table of outstanding request ids —
	// statements, feeds and REPL streams alike — so a reused id is refused
	// whatever it named, and CANCEL reaches exactly what the id was issued
	// for. The connection is idle exactly when it is empty.
	byID map[uint64]*muxTask
	free []*hql.Session // reusable sessions from ended one-shot streams

	// feeds lets teardown wait for the goroutines of feeds and REPL
	// streams (they exit promptly once canceled).
	feeds sync.WaitGroup
}

// serveMux serves a connection after its HELLO until it ends. The caller
// (handleConn) closes the socket afterwards.
func (s *Server) serveMux(c net.Conn, br *bufio.Reader, tn *tenantState) {
	m := &muxConn{
		srv:     s,
		tn:      tn,
		c:       c,
		streams: make(map[uint32]*muxStream),
		byID:    make(map[uint64]*muxTask),
	}
	defer m.teardown()
	for {
		m.mu.Lock()
		m.armIdleLocked()
		m.mu.Unlock()
		f, err := wire.ReadFrame(br, s.opts.MaxStatementBytes+64)
		if err != nil {
			// Best-effort diagnosis; framing is lost either way, so close.
			switch {
			case errors.Is(err, wire.ErrTooLarge):
				m.send(errFrame(0, 0, codeTooLarge, 0, err.Error()))
			case errors.Is(err, wire.ErrProtocol):
				m.send(errFrame(0, 0, codeProto, 0, err.Error()))
			}
			return
		}

		switch f.Type {
		case wire.TypePing:
			if m.send(okFrame(f.ID, f.Stream, "pong")) != nil {
				return
			}
		case wire.TypeStats:
			if m.send(okFrame(f.ID, f.Stream, obs.Default().RenderText())) != nil {
				return
			}
		case wire.TypeLag:
			if s.opts.LagProbe == nil {
				m.send(errFrame(f.ID, f.Stream, codeUnsupported, 0, "not a replica"))
			} else if m.send(okFrame(f.ID, f.Stream, wire.LagPayload(s.opts.LagProbe()))) != nil {
				return
			}
		case wire.TypePromote:
			if s.opts.Promote == nil {
				m.send(errFrame(f.ID, f.Stream, codeUnsupported, 0, "not a replica"))
			} else if err := s.opts.Promote(); err != nil {
				m.send(errFrame(f.ID, f.Stream, codeExec, 0, err.Error()))
			} else if m.send(okFrame(f.ID, f.Stream, "promoted")) != nil {
				return
			}
		case wire.TypeShardMap:
			if s.opts.Shard == nil {
				m.send(errFrame(f.ID, f.Stream, codeUnsupported, 0, "this server is not a shard"))
			} else if m.send(okFrame(f.ID, f.Stream,
				fmt.Sprintf("%d %d", s.opts.Shard.ID, s.opts.Shard.Count))) != nil {
				return
			}
		case wire.TypeGoodbye:
			return
		case wire.TypeCancel:
			m.cancelID(f.ID)
		case wire.TypeEndStream:
			m.endStream(f.Stream)
		case wire.TypeSubscribe:
			if !m.subscribe(f) {
				return
			}
		case wire.TypeSnap:
			m.snap(f)
		case wire.TypeRepl:
			if !m.repl(f) {
				return
			}
		case wire.TypeAck:
			if !m.ack(f) {
				return
			}
		case wire.TypeExec, wire.TypeExecShard:
			if f.Type == wire.TypeExecShard && !m.hooked(f, s.opts.Shard != nil, "EXECSHARD", "this server is not a shard") {
				continue
			}
			if !m.exec(f) {
				return
			}
		default:
			m.send(errFrame(f.ID, f.Stream, codeProto, 0, "unknown frame type"))
			return
		}
	}
}

// armIdleLocked runs the IdleTimeout clock only while byID is empty; the
// reader calls it before every frame, and so does whoever empties byID.
// Callers hold m.mu.
func (m *muxConn) armIdleLocked() {
	idle := m.srv.opts.IdleTimeout
	switch {
	case idle <= 0:
	case len(m.byID) == 0:
		m.c.SetReadDeadline(time.Now().Add(idle))
	default:
		m.c.SetReadDeadline(time.Time{})
	}
}

// openStream runs a SUBSCRIBE feed or a REPL stream under its request id:
// a byID entry whose cancel ends it, and a goroutine whose serve sends
// frames on the id, then one ERR saying why it ended (feedEnd). acks routes
// the id's ACK frames to Options.Repl. It reports whether the connection
// may continue (a duplicate id desyncs it).
func (m *muxConn) openStream(f wire.Frame, acks bool, serve func(ctx context.Context, send func(typ byte, payload []byte) error) error) bool {
	ctx, cancel := context.WithCancel(context.Background())
	m.mu.Lock()
	if _, dup := m.byID[f.ID]; dup {
		m.mu.Unlock()
		cancel()
		m.send(errFrame(f.ID, f.Stream, codeProto, 0, "duplicate request id"))
		return false
	}
	m.byID[f.ID] = &muxTask{id: f.ID, stream: f.Stream, cancel: cancel, acks: acks}
	m.mu.Unlock()

	m.feeds.Add(1)
	go func() {
		defer m.feeds.Done()
		err := serve(ctx, func(typ byte, payload []byte) error {
			return m.send(wire.Frame{Type: typ, ID: f.ID, Stream: f.Stream, Payload: payload})
		})
		cancel()
		m.mu.Lock()
		delete(m.byID, f.ID)
		m.armIdleLocked()
		m.mu.Unlock()
		code, msg := feedEnd(err)
		m.send(errFrame(f.ID, f.Stream, code, 0, msg))
	}()
	return true
}

// teardown cancels every outstanding request when the connection ends, so
// abandoned statements release their workers promptly instead of running
// to completion for a reader that is gone, and feeds stop.
func (m *muxConn) teardown() {
	m.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(m.byID))
	for _, mt := range m.byID {
		cancels = append(cancels, mt.cancel)
	}
	m.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	m.feeds.Wait()
}

// Write writes p to the connection under the write lock. Every caller
// writes whole frames, one per call, so frames never interleave.
func (m *muxConn) Write(p []byte) (int, error) {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	return m.c.Write(p)
}

// hooked answers the refusals EXECSHARD, SNAP, REPL and SUBSCRIBE share
// and reports whether the request may proceed. Its hook must be
// configured. The connection must be in the default namespace: the shard
// node, the replication source and the feed source all act on the main
// target. And the server must not be draining: the store and view manager
// close after the drain, so work started during it would race that close
// (streams already running end when Shutdown retires their connections).
func (m *muxConn) hooked(f wire.Frame, enabled bool, verb, disabled string) bool {
	switch {
	case !enabled:
		m.send(errFrame(f.ID, f.Stream, codeUnsupported, 0, disabled))
	case m.tn.name != DefaultTenant:
		m.send(errFrame(f.ID, f.Stream, codeUnsupported, 0, verb+" serves the default namespace only"))
	case m.srv.drainingNow():
		m.send(errFrame(f.ID, f.Stream, codeShutdown, 0, "server draining"))
	default:
		return true
	}
	return false
}

// send writes one frame. Whoever completes a request writes its reply.
// Write errors mean the connection is going away — callers on the reply
// path ignore them (teardown handles the rest).
func (m *muxConn) send(f wire.Frame) error { return wire.WriteFrame(m, f) }

// okFrame builds a success response frame.
func okFrame(id uint64, stream uint32, payload string) wire.Frame {
	return wire.Frame{Type: wire.TypeOK, ID: id, Stream: stream, Payload: []byte(payload)}
}

// errFrame builds a failure response frame.
func errFrame(id uint64, stream uint32, code Code, retryAfter time.Duration, msg string) wire.Frame {
	return wire.ErrFrame(id, stream, string(code), retryAfter, msg)
}

// failCode maps why a statement failed — its error, or the context error
// of a deadline or cancel that abandoned it — to the code it is answered
// with.
func failCode(err error) Code {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		metricDeadline.Inc()
		return codeDeadline
	case errors.Is(err, context.Canceled):
		return codeCanceled
	case errors.Is(err, storage.ErrDeposed):
		// This node was fenced by a newer primary. The fence check runs
		// before any staging or apply, so the write definitively did not
		// execute — "stale" tells a router to re-discover the primary and
		// retry there.
		return codeStale
	default:
		return codeExec
	}
}

// reply answers one EXEC task and records its latency (received → reply)
// in the global and tenant histograms.
func (m *muxConn) reply(mt *muxTask, f wire.Frame) {
	d := time.Since(mt.start)
	metricRequestNS.ObserveDuration(d)
	m.tn.mLatency.ObserveDuration(d)
	m.send(f)
}

// exec enqueues one EXEC frame on its stream, starting the stream if it is
// idle. It reports whether the connection may continue (a malformed or
// duplicate frame desyncs the conversation and closes it).
func (m *muxConn) exec(f wire.Frame) bool {
	timeout, input, err := parseExecPayload(f.Payload)
	if err != nil {
		m.send(errFrame(f.ID, f.Stream, codeProto, 0, err.Error()))
		return false
	}
	s := m.srv
	metricRequests.Inc()
	m.tn.mRequests.Inc()

	// Build the task at receipt so the deadline clock covers time spent
	// waiting in the stream FIFO — a pipelined request's budget starts
	// when the server reads it, not when the stream gets around to it.
	if s.opts.MaxDeadline > 0 && (timeout <= 0 || timeout > s.opts.MaxDeadline) {
		timeout = s.opts.MaxDeadline
	}
	ctx, cancel := context.WithCancel(context.Background())
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), timeout)
	}

	m.mu.Lock()
	if _, dup := m.byID[f.ID]; dup {
		m.mu.Unlock()
		cancel()
		m.send(errFrame(f.ID, f.Stream, codeProto, 0, "duplicate request id"))
		return false
	}
	st := m.streams[f.Stream]
	if st == nil {
		st = &muxStream{id: f.Stream, sess: m.takeSession()}
		m.streams[f.Stream] = st
	}
	if st.dead {
		m.mu.Unlock()
		cancel()
		m.send(errFrame(f.ID, f.Stream, codeCanceled, 0, "stream retired after an abandoned statement"))
		return true
	}
	mt := &muxTask{
		id: f.ID, stream: f.Stream, cancel: cancel, end: f.Flags&wire.FlagEndStream != 0, start: time.Now(),
		t: &task{sess: st.sess, input: input, ctx: ctx, cancel: cancel, tn: m.tn, done: make(chan taskResult, 1)},
	}
	if f.Type == wire.TypeExecShard {
		// Guarded at the dispatch switch: opts.Shard is non-nil here.
		node := s.opts.Shard
		mt.t.run = func(ctx context.Context) (string, error) {
			op, err := wire.ParseShardOp([]byte(input))
			if err != nil {
				return "", err
			}
			rep, err := node.Execute(ctx, op)
			if err != nil {
				return "", err
			}
			return string(wire.ShardReplyPayload(rep)), nil
		}
	}
	m.byID[f.ID] = mt
	if st.running {
		st.queue = append(st.queue, mt)
		m.mu.Unlock()
		return true
	}
	st.running = true
	m.mu.Unlock()
	m.runStream(mt, st)
	return true
}

// takeSession pops a pooled session or builds a fresh one over the
// tenant's target. Callers hold m.mu.
func (m *muxConn) takeSession() *hql.Session {
	for n := len(m.free); n > 0; n = len(m.free) {
		sess := m.free[n-1]
		m.free = m.free[:n-1]
		if sess.Reset() == nil {
			return sess
		}
	}
	return m.srv.newSession(m.tn)
}

// runStream advances a stream: it submits the head task and, whenever a
// task is answered without entering the worker pool (shed, pre-expired),
// continues inline with the next queued one. Exactly one goroutine
// advances a given stream at a time (st.running).
func (m *muxConn) runStream(mt *muxTask, st *muxStream) {
	for mt != nil {
		if m.startTask(mt, st) {
			return // admitted; the await goroutine advances the stream next
		}
		mt = m.afterTask(mt, st, false)
	}
}

// startTask submits one task to the admission queue. It reports whether an
// await goroutine now owns the reply; on false the task has already been
// answered here.
func (m *muxConn) startTask(mt *muxTask, st *muxStream) bool {
	m.mu.Lock()
	mt.started = true
	m.mu.Unlock()
	s := m.srv
	t := mt.t
	if err := t.ctx.Err(); err != nil {
		// Expired or canceled while waiting in the stream FIFO: the
		// statement never ran, so the stream itself is fine.
		t.cancel()
		m.reply(mt, errFrame(mt.id, mt.stream, failCode(err), 0, err.Error()))
		return false
	}
	// The reply is owed from before the task can reach a worker, so a drain
	// that has seen the statement finish also sees its reply outstanding.
	s.replyWG.Add(1)
	if code, err := s.submit(t); err != nil {
		s.replyWG.Done()
		t.cancel()
		var hint time.Duration
		if code == codeOverloaded || code == codeQuota {
			hint = s.opts.RetryAfter
		}
		m.reply(mt, errFrame(mt.id, mt.stream, code, hint, err.Error()))
		return false
	}
	go m.await(mt, st)
	return true
}

// await waits for an admitted task's result (or its deadline), writes the
// reply, and advances the stream. One await goroutine exists per admitted
// task, so their count is bounded by Workers + QueueDepth.
func (m *muxConn) await(mt *muxTask, st *muxStream) {
	defer m.srv.replyWG.Done()
	t := mt.t
	retire := false
	select {
	case res := <-t.done:
		t.cancel()
		switch {
		case res.panicked:
			// The session may hold arbitrarily corrupt state: answer, then
			// retire the stream. The connection and the server stay up.
			metricPanics.Inc()
			m.reply(mt, errFrame(mt.id, mt.stream, codePanic, 0, res.err.Error()))
			retire = true
		case res.err != nil:
			m.reply(mt, errFrame(mt.id, mt.stream, failCode(res.err), 0, res.err.Error()))
		default:
			m.reply(mt, okFrame(mt.id, mt.stream, res.out))
		}
	case <-t.ctx.Done():
		// Deadline or cancel fired while the statement was queued or still
		// running. Answer now — the server always answers or sheds — and
		// retire only this stream: its session may still be executing, so
		// it must never run another statement, but the connection and every
		// other stream keep going.
		m.reply(mt, errFrame(mt.id, mt.stream, failCode(t.ctx.Err()), 0, t.ctx.Err().Error()))
		retire = true
	}
	if next := m.afterTask(mt, st, retire); next != nil {
		m.runStream(next, st)
	}
}

// afterTask retires a finished head-of-stream task and returns the next
// task to run, if any. retire marks the stream dead (its session may still
// be executing the abandoned statement); a dead or cleanly ended stream
// answers everything still queued with "canceled".
func (m *muxConn) afterTask(mt *muxTask, st *muxStream, retire bool) *muxTask {
	m.mu.Lock()
	delete(m.byID, mt.id)
	if retire {
		st.dead = true
	}
	var next *muxTask
	var dropped []*muxTask
	switch {
	case st.dead:
		dropped = st.queue
		st.queue = nil
		st.running = false
	case mt.end:
		// One-shot stream: recycle the session, forget the stream. Anything
		// pipelined behind an end-flagged EXEC is a client bug; answer it
		// rather than run it on a disposed session.
		dropped = st.queue
		st.queue = nil
		st.running = false
		delete(m.streams, st.id)
		if len(m.free) < maxFreeSessions {
			m.free = append(m.free, st.sess)
		}
		st.sess = nil
	case len(st.queue) > 0:
		next = st.queue[0]
		st.queue = st.queue[1:]
	default:
		st.running = false
	}
	for _, d := range dropped {
		delete(m.byID, d.id)
	}
	m.armIdleLocked()
	m.mu.Unlock()
	for _, d := range dropped {
		d.t.cancel()
		m.reply(d, errFrame(d.id, d.stream, codeCanceled, 0, "stream closed before execution"))
	}
	return next
}

// cancelID handles a CANCEL frame: best effort, no reply of its own. A
// still-queued request is answered "canceled" immediately; a request in
// the worker pool gets its context canceled and answers through the normal
// await path; a feed ends, and its goroutine answers and deregisters it;
// an unknown id (already answered, never seen) is a no-op.
func (m *muxConn) cancelID(id uint64) {
	m.mu.Lock()
	mt := m.byID[id]
	queued := false
	if mt != nil && mt.t != nil && !mt.started {
		if st := m.streams[mt.stream]; st != nil {
			for i, q := range st.queue {
				if q == mt {
					st.queue = append(st.queue[:i], st.queue[i+1:]...)
					queued = true
					break
				}
			}
		}
		if queued {
			delete(m.byID, id)
			m.armIdleLocked()
		}
	}
	m.mu.Unlock()
	if mt == nil {
		return
	}
	mt.cancel()
	if queued {
		m.reply(mt, errFrame(mt.id, mt.stream, codeCanceled, 0, "canceled before execution"))
	}
}

// endStream disposes a stream. An idle stream is forgotten at once (its
// session recycled); a stream with work in flight is marked dead so it
// winds down through afterTask.
func (m *muxConn) endStream(stream uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.streams[stream]
	if st == nil {
		return
	}
	if st.running {
		st.dead = true
		return
	}
	delete(m.streams, stream)
	if st.sess != nil && !st.dead && len(m.free) < maxFreeSessions {
		m.free = append(m.free, st.sess)
	}
	st.sess = nil
}
