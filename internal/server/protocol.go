// Package server is the network front end of the hierarchical relational
// database: a concurrent HQL service over TCP with production-grade
// resilience machinery — admission control with load shedding, per-request
// deadlines, panic isolation, connection and idle limits, per-tenant
// quotas, and graceful drain — plus the matching client (Dial) and a
// fault-injecting ChaosProxy for tests.
//
// # Wire protocol
//
// Connections speak the framing of internal/wire (the reference is
// docs/HQL.md, "Wire protocol"): a `HELLO 2 [tenant]` line, then binary
// frames. An opening line that is not HELLO, an unknown tenant, a
// connection beyond MaxConns and one arriving during drain get one text
// ERR and a hang-up.
//
// A frame's id correlates a response with its request and must be unique
// among the connection's outstanding requests: statements, change feeds
// and replication streams share one id table, and a duplicate closes the
// connection. Its stream groups requests into logical sub-connections:
// requests on one stream execute in order on one server-side session (so
// transactions work), distinct streams concurrently, answered in
// completion order. CANCEL aborts a request by id; a deadline or
// cancellation that catches a statement mid-execution retires only its
// stream.
//
// EXEC and EXECSHARD (a wire.ShardOp, answered with a wire.ShardReply) run
// on the worker pool under admission control, their timeout_ms carrying
// the client's deadline capped at MaxDeadline. PING, STATS, LAG, PROMOTE,
// SHARDMAP and SNAP are answered inline by the connection's reader, so
// they work even when the admission queue is saturated. A request whose
// hook (Options.Shard, LagProbe, Promote, Subscribe, Repl) is not
// configured answers ERR "unsupported", and so do EXECSHARD, SUBSCRIBE,
// SNAP and REPL on a tenant connection: their hooks act on the default
// namespace only.
//
// SUBSCRIBE and REPL each open a long-lived stream of frames on their
// request id, beside the connection's other requests, and exactly one ERR
// on that id ends it: "canceled" after the client's CANCEL, else why the
// source stopped. A feed of Options.Subscribe sends one SUB frame per
// wire.Change and ends "notfound", "stale", "dropped" or "shutdown"; a
// REPL stream of Options.Repl sends SHIP, HB and ROTATE frames, the reader
// passes the follower's ACK frames to Options.Repl.Ack, and an unservable
// position or a deposed primary ends it "stale".
//
// ERR codes are the closed vocabulary minted in errors.go, each bound to
// the one exported sentinel errors.Is matches for it; only proto and
// toolarge close the connection.
package server

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"hrdb/internal/wire"
)

// execPayload encodes an EXEC or EXECSHARD payload: u32 timeout_ms |
// script. Negative timeouts clamp to zero (no deadline), overflow to the
// field's maximum.
func execPayload(timeout time.Duration, input string) []byte {
	ms := min(max(timeout.Milliseconds(), 0), math.MaxUint32)
	p := make([]byte, 4, 4+len(input))
	binary.BigEndian.PutUint32(p, uint32(ms))
	return append(p, input...)
}

// parseExecPayload decodes an EXEC or EXECSHARD payload.
func parseExecPayload(p []byte) (timeout time.Duration, input string, err error) {
	if len(p) < 4 {
		return 0, "", fmt.Errorf("%w: EXEC payload %d bytes, want ≥ 4", wire.ErrProtocol, len(p))
	}
	ms := binary.BigEndian.Uint32(p)
	return time.Duration(ms) * time.Millisecond, string(p[4:]), nil
}
