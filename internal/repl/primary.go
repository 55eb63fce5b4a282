package repl

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"hrdb/internal/storage"
	"hrdb/internal/wire"
)

// PrimaryOptions tune a Primary. The zero value gets defaults.
type PrimaryOptions struct {
	// ChunkBytes bounds the WAL bytes of one SHIP frame. Default 256 KiB,
	// capped at maxShipChunk.
	ChunkBytes int
	// HeartbeatInterval is how often a caught-up stream emits HB frames.
	// Heartbeats double as liveness probes and carry the durable
	// high-water mark that followers use to compute byte lag. Default
	// 500ms.
	HeartbeatInterval time.Duration
}

func (o *PrimaryOptions) defaults() {
	if o.ChunkBytes <= 0 || o.ChunkBytes > maxShipChunk {
		o.ChunkBytes = 256 << 10
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 500 * time.Millisecond
	}
}

// Primary serves replication from a store's WAL. It satisfies
// server.ReplSource structurally — internal/repl never imports
// internal/server; a daemon wires a Primary into server.Options.Repl.
//
// A Primary holds no per-follower state beyond the serving goroutine the
// server runs per REPL request; any number of followers may stream
// concurrently.
type Primary struct {
	store *storage.Store
	opts  PrimaryOptions

	mu    sync.Mutex
	acked storage.Position // highest position any follower has acknowledged
}

// NewPrimary creates a replication source over an open store.
func NewPrimary(store *storage.Store, opts PrimaryOptions) *Primary {
	opts.defaults()
	return &Primary{store: store, opts: opts}
}

// Snapshot cuts a consistent bootstrap payload: the database spec plus the
// replication position replaying from which reproduces the primary, the
// fencing term, and the takeover divergence point (if any).
func (p *Primary) Snapshot() ([]byte, error) {
	spec, epoch, offset, err := p.store.ReplicationSnapshot()
	if err != nil {
		return nil, err
	}
	return encodeBootstrap(bootstrap{
		Spec: spec, Epoch: epoch, Offset: offset,
		Term:          spec.PrimaryTerm,
		TakeoverEpoch: spec.TakeoverEpoch, TakeoverOffset: spec.TakeoverOffset,
	})
}

// AckedPosition returns the highest position any follower has acknowledged
// as durably applied.
func (p *Primary) AckedPosition() (epoch uint64, offset int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.acked.Epoch, p.acked.Offset
}

// Ack takes a follower's ACK, which the server passes on from the stream's
// connection. An ACK carrying a higher term fences the store exactly like a
// REPL request announcing it; a ship loop notices on its next pass.
func (p *Primary) Ack(ack wire.StreamPos) {
	p.store.Fence(ack.Term)
	metricAcks.Inc()
	pos := storage.Position{Epoch: ack.Epoch, Offset: ack.Offset}
	p.mu.Lock()
	if p.acked.Before(pos) {
		p.acked = pos
		metricAckedEpoch.Set(int64(pos.Epoch))
		metricAckedOffset.Set(pos.Offset)
	}
	p.mu.Unlock()
}

// ServeStream streams WAL bytes from (from.Epoch, from.Offset) to a
// follower, one frame per send, until ctx is canceled, a send fails, the
// store closes, or the position turns out to be unservable — an error
// wrapping wire.ErrFeedStale, which the follower answers by
// re-bootstrapping via SNAP. A follower resumes at the first byte it has
// not received — a record boundary after a reconnect, any byte after an
// overflow on the same connection — so the raw byte stream picks up exactly
// where the previous stream left off.
//
// from.Term is the highest fencing term the follower has seen. A follower
// ahead of this primary's own term is proof of deposition: a newer primary
// was elected while we were partitioned away. The store is fenced
// immediately — before a single frame is shipped — and the follower is
// turned away stale, so a deposed primary can neither accept writes nor
// feed followers divergent history.
func (p *Primary) ServeStream(ctx context.Context, from wire.StreamPos, send func(typ byte, payload []byte) error) error {
	if p.store.Fence(from.Term) {
		return fmt.Errorf("%w: deposed: follower announced term %d beyond ours", wire.ErrFeedStale, from.Term)
	}
	// The follower walks the log; what is left here is fencing, heartbeats
	// and framing. Its chunks go out verbatim.
	f := p.store.Follow(storage.Position{Epoch: from.Epoch, Offset: from.Offset}, p.opts.ChunkBytes)
	lastHB := time.Time{}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if by := p.store.FencedBy(); by != 0 {
			return fmt.Errorf("%w: deposed by term %d", wire.ErrFeedStale, by)
		}
		term := p.store.Term()
		// Bound the wait at the durable end by the heartbeat interval, so
		// liveness keeps flowing.
		waitCtx, waitCancel := context.WithTimeout(ctx, p.opts.HeartbeatInterval)
		step, err := f.Next(waitCtx)
		waitCancel()
		switch {
		case errors.Is(err, storage.ErrWALUnavailable):
			// Retired and reclaimed before this follower caught up, or not a
			// position of this log at all: it must re-bootstrap.
			return fmt.Errorf("%w: %v", wire.ErrFeedStale, err)
		case errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil:
			step.At = f.Position() // still caught up: time for the next heartbeat
		case err != nil:
			return err // canceled, or store closed
		}
		at := streamPos(term, step.At)
		switch {
		case len(step.Chunk) > 0:
			if err = send(wire.TypeShip, wire.ShipPayload(at, step.Chunk)); err == nil {
				metricShippedBytes.Add(uint64(len(step.Chunk)))
			}
		case step.Rotated:
			err = send(wire.TypeRotate, wire.AppendStreamPos(nil, streamPos(term, storage.Position{Epoch: step.At.Epoch})))
		case time.Since(lastHB) >= p.opts.HeartbeatInterval:
			err = send(wire.TypeHB, wire.AppendStreamPos(nil, at))
			lastHB = time.Now()
		}
		if err != nil {
			return err
		}
	}
}
