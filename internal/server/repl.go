package server

import (
	"bufio"
	"context"
	"io"

	"hrdb/internal/wire"
)

// This file is the server's replication surface. The server itself knows
// nothing about WAL shipping: it decodes the replication requests and
// delegates to pluggable hooks (Options.Repl, Options.Promote,
// Options.LagProbe), so the dependency points from internal/repl — which
// implements them — into the wire contract, never back.

// ReplSource serves replication to followers. Implemented by repl.Primary
// (and by repl.Replica once durably promoted).
type ReplSource interface {
	// Snapshot returns an opaque bootstrap payload: the database spec plus
	// the replication position it corresponds to (the follower decodes it
	// with the matching repl code). Served as an OK frame answering SNAP.
	Snapshot() ([]byte, error)
	// ServeStream takes over a connection after the REPL request id asked
	// for the stream at (from.Epoch, from.Offset): it writes SHIP, HB and
	// ROTATE frames carrying id to w, one frame per Write, and consumes
	// the follower's ACK frames from r until the stream ends (connection
	// severed, source closed, or the position unservable — answered with
	// an ERR "stale" frame). from.Term is the follower's highest fencing
	// term; a source holding a lower term has been deposed and must fence
	// itself rather than serve. The server closes the connection
	// afterwards.
	ServeStream(r *bufio.Reader, w io.Writer, id uint64, from wire.StreamPos) error
}

// LagInfo is a replica's replication state, served by the LAG request and
// consumed by lag-bounded read routing (see wire.LagInfo).
type LagInfo = wire.LagInfo

// A draining server refuses to START a snapshot or stream: Shutdown closes
// the store after the drain, and a follower bootstrap admitted during the
// drain would race that close — it gets a retryable shutdown error and
// bootstraps elsewhere (or later) instead. Streams already running are
// unaffected; they end when Shutdown retires their connections.

// snap answers a SNAP frame.
func (m *muxConn) snap(f wire.Frame) {
	s := m.srv
	if s.opts.Repl == nil {
		m.send(errFrame(f.ID, f.Stream, codeUnsupported, 0, "replication not enabled"))
		return
	}
	if !m.defaultOnly(f, "SNAP") {
		return
	}
	if s.drainingNow() {
		m.send(errFrame(f.ID, f.Stream, codeShutdown, 0, "server draining"))
		return
	}
	payload, err := s.opts.Repl.Snapshot()
	if err != nil {
		m.send(errFrame(f.ID, f.Stream, codeExec, 0, err.Error()))
		return
	}
	metricReplSnapshots.Inc()
	m.send(wire.Frame{Type: wire.TypeOK, ID: f.ID, Stream: f.Stream, Payload: payload})
}

// repl answers a REPL frame by handing the connection to the replication
// stream, which must be its only outstanding request: once the stream owns
// the connection nothing else can be answered on it. It reports whether
// the connection may continue — only after a refusal.
func (m *muxConn) repl(f wire.Frame, br *bufio.Reader) bool {
	s := m.srv
	from, err := wire.ParseStreamPos(f.Payload)
	if err != nil {
		m.send(errFrame(f.ID, f.Stream, codeProto, 0, err.Error()))
		return false
	}
	if s.opts.Repl == nil {
		m.send(errFrame(f.ID, f.Stream, codeUnsupported, 0, "replication not enabled"))
		return true
	}
	if !m.defaultOnly(f, "REPL") {
		return true
	}
	if s.drainingNow() {
		m.send(errFrame(f.ID, f.Stream, codeShutdown, 0, "server draining"))
		return true
	}
	m.mu.Lock()
	busy := len(m.byID) > 0
	m.mu.Unlock()
	if busy {
		m.send(errFrame(f.ID, f.Stream, codeProto, 0, "REPL must be the connection's only outstanding request"))
		return false
	}
	metricReplStreams.Inc()
	defer metricReplStreams.Dec()
	_ = s.opts.Repl.ServeStream(br, m, f.ID, from)
	return false
}

// Lag queries a replica server's replication state (the LAG request).
// Servers without a lag probe answer with an "unsupported" ServerError.
func (c *Client) Lag(ctx context.Context) (LagInfo, error) {
	payload, err := c.inline(ctx, wire.TypeLag)
	if err != nil {
		return LagInfo{}, err
	}
	return wire.ParseLag(payload)
}

// Promote asks a replica server to stop following and accept writes (the
// PROMOTE request). It is manual failover: the caller decides the old
// primary is gone; the replica finishes applying whatever it has and
// flips writable. A failing promotion surfaces as an "exec" ServerError
// carrying the cause.
func (c *Client) Promote(ctx context.Context) error {
	_, err := c.inline(ctx, wire.TypePromote)
	return err
}
