package server

import (
	"context"

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
	// ServeStream serves the stream a REPL request asked for at
	// (from.Epoch, from.Offset): it sends SHIP, HB and ROTATE frames through
	// send until ctx is canceled (CANCEL, or the connection ended), a send
	// fails, or the stream cannot go on — a position it cannot serve, or a
	// deposed source, ends it with an error wrapping wire.ErrFeedStale.
	// from.Term is the follower's highest fencing term; a source holding a
	// lower term has been deposed and must fence itself rather than serve.
	ServeStream(ctx context.Context, from wire.StreamPos, send func(typ byte, payload []byte) error) error
	// Ack takes a follower's ACK: the position it has durably applied, and
	// its fencing term.
	Ack(pos wire.StreamPos)
}

// LagInfo is a replica's replication state, served by the LAG request and
// consumed by lag-bounded read routing (see wire.LagInfo).
type LagInfo = wire.LagInfo

// snap answers a SNAP frame.
func (m *muxConn) snap(f wire.Frame) {
	s := m.srv
	if !m.hooked(f, s.opts.Repl != nil, "SNAP", "replication not enabled") {
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

// repl answers a REPL frame: the replication stream runs as one of the
// connection's long-lived streams (see openStream), beside whatever else
// the connection carries. It reports whether the connection may continue.
func (m *muxConn) repl(f wire.Frame) bool {
	s := m.srv
	from, err := wire.ParseStreamPos(f.Payload)
	if err != nil {
		m.send(errFrame(f.ID, f.Stream, codeProto, 0, err.Error()))
		return false
	}
	if !m.hooked(f, s.opts.Repl != nil, "REPL", "replication not enabled") {
		return true
	}
	return m.openStream(f, true, func(ctx context.Context, send func(typ byte, payload []byte) error) error {
		metricReplStreams.Inc()
		defer metricReplStreams.Dec()
		return s.opts.Repl.ServeStream(ctx, from, send)
	})
}

// ack passes an ACK frame to the replication source when its id names a
// live REPL stream of this connection; an ACK racing its stream's end is
// dropped. It reports whether the connection may continue.
func (m *muxConn) ack(f wire.Frame) bool {
	pos, err := wire.ParseStreamPos(f.Payload)
	if err != nil {
		m.send(errFrame(f.ID, f.Stream, codeProto, 0, err.Error()))
		return false
	}
	m.mu.Lock()
	mt := m.byID[f.ID]
	m.mu.Unlock()
	if mt != nil && mt.acks {
		m.srv.opts.Repl.Ack(pos)
	}
	return true
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
