package repl

import (
	"fmt"
	"time"

	"hrdb/internal/storage"
	"hrdb/internal/wire"
)

// Failover-side helpers: probing peers for their replication status,
// fencing a deposed primary, and the deposed primary's own rejoin flow
// (CheckDeposed + Demote). Like the rest of this package they speak the
// wire contract (internal/wire) through a wire.Conn rather than importing
// internal/server — the dependency points from the daemon down into both
// packages, never between them.

// request asks the node at addr one payload-less question (LAG, SNAP) on a
// connection of its own, all within timeout, and returns the OK payload,
// which may be at most maxBytes long.
func request(addr string, typ byte, maxBytes int, timeout time.Duration) ([]byte, error) {
	ctx, cancel := within(timeout)
	defer cancel()
	cc, err := dial(ctx, addr, timeout, maxBytes)
	if err != nil {
		return nil, err
	}
	defer cc.Close()
	return cc.Do(ctx, typ, 0, 0, nil)
}

// probePeer asks one peer (by client address) for its replication status.
func probePeer(addr string, timeout time.Duration) (Status, error) {
	payload, err := request(addr, wire.TypeLag, maxLagBytes, timeout)
	if err != nil {
		return Status{}, fmt.Errorf("repl: LAG from %s: %w", addr, err)
	}
	return wire.ParseLag(string(payload))
}

// fenceRemote tells the node at addr (its upstream) that term has been
// asserted, by opening a stream request that announces it: a primary
// answering a REPL whose term is above its own fences itself before
// replying. Best effort — the node being unreachable is the normal case
// (that's why there was a failover).
func fenceRemote(addr string, term uint64, timeout time.Duration) {
	if addr == "" {
		return
	}
	ctx, cancel := within(timeout)
	defer cancel()
	cc, err := dial(ctx, addr, timeout, maxStreamFrame)
	if err != nil {
		return
	}
	defer cc.Close()
	fd, err := cc.Open(wire.TypeRepl, wire.AppendStreamPos(nil, wire.StreamPos{Term: term}), maxStreamFrame)
	if err != nil {
		return
	}
	// Wait for whatever the node answers (a stale ERR, typically) just so
	// the request is known delivered before the connection drops.
	_, _ = fd.Next(ctx)
}

// Deposition is CheckDeposed's verdict: the fencing term that supersedes
// this store and where the new primary can be followed.
type Deposition struct {
	// Term is the highest fencing term found among the peers.
	Term uint64
	// Primary is the address of the peer reporting itself promoted, if any
	// ("" when the peers only relayed a higher term) — the address to
	// rejoin and stream from.
	Primary string
}

// CheckDeposed probes peers for a fencing term above the store's own. A
// restarting primary calls it before serving: if the cluster moved on while
// it was down, the store is fenced immediately — before a single write
// could be accepted — and the returned Deposition says whom to rejoin. A
// nil return means no reachable peer knows a higher term and the store may
// serve as primary.
func CheckDeposed(st *storage.Store, peers []string, timeout time.Duration) *Deposition {
	own := st.Term()
	var dep *Deposition
	for _, peer := range peers {
		status, err := probePeer(peer, timeout)
		if err != nil || status.Term <= own {
			continue
		}
		if dep == nil || status.Term > dep.Term {
			dep = &Deposition{Term: status.Term}
		}
		if status.Term == dep.Term && status.State == "promoted" {
			dep.Primary = peer
		}
	}
	if dep != nil {
		st.Fence(dep.Term)
	}
	return dep
}

// Demote executes a deposed primary's divergence-aware rejoin, given the
// fenced store and the Deposition that fenced it:
//
//  1. The new primary's bootstrap is fetched (from dep.Primary) to learn the
//     takeover divergence point — the position in THIS store's lineage up
//     to which the promoting replica had applied.
//  2. The store's WAL suffix past that point — committed here, never
//     replicated, contradicted by the new timeline — is quarantined to a
//     sidecar file instead of being silently discarded.
//  3. The store is closed and its snapshot and WALs removed, so the
//     directory is ready for a fresh bootstrap from the new primary.
//
// It returns the quarantine sidecar path ("" when nothing diverged). The
// caller then starts a NewReplica against the new primary, typically with
// PromoteDir pointing back at the same directory.
func Demote(st *storage.Store, dep *Deposition, timeout time.Duration) (quarantine string, err error) {
	if dep == nil || dep.Primary == "" {
		return "", fmt.Errorf("repl: demote: no promoted peer to rejoin")
	}
	boot, err := fetchBootstrap(dep.Primary, timeout)
	if err != nil {
		return "", fmt.Errorf("repl: demote: %w", err)
	}
	if boot.Term < dep.Term {
		return "", fmt.Errorf("repl: demote: primary %s is behind the deposing term (%d < %d)", dep.Primary, boot.Term, dep.Term)
	}
	quarantine, n, err := st.QuarantineSuffix(boot.TakeoverEpoch, boot.TakeoverOffset)
	if err != nil {
		return "", fmt.Errorf("repl: demote: quarantine: %w", err)
	}
	if n > 0 {
		metricQuarantinedBytes.Add(uint64(n))
	}
	dir := st.Dir()
	if err := st.Close(); err != nil {
		return quarantine, fmt.Errorf("repl: demote: close: %w", err)
	}
	if err := storage.RemoveStoreFiles(dir); err != nil {
		return quarantine, fmt.Errorf("repl: demote: clear store: %w", err)
	}
	return quarantine, nil
}

// fetchBootstrap retrieves and decodes a SNAP payload from a node, without
// installing it anywhere — Demote only needs the metadata.
func fetchBootstrap(addr string, timeout time.Duration) (bootstrap, error) {
	payload, err := request(addr, wire.TypeSnap, maxSnapshotBytes, timeout)
	if err != nil {
		return bootstrap{}, fmt.Errorf("SNAP from %s: %w", addr, err)
	}
	return decodeBootstrap(payload)
}
