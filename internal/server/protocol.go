// Package server is the network front end of the hierarchical relational
// database: a concurrent HQL service over TCP with production-grade
// resilience machinery — admission control with load shedding, per-request
// deadlines, panic isolation, connection and idle limits, per-tenant
// quotas, and graceful drain — plus the matching client (Dial) and a
// fault-injecting ChaosProxy for tests.
//
// # Wire protocol
//
// Every connection speaks one framing, defined in internal/wire (the full
// reference is docs/HQL.md, "Wire protocol"). The client opens with the
// text line `HELLO 2 [tenant]`; the server answers `OK` with payload
// `v2 tenant=<resolved>`, and from then on both directions carry
// length-prefixed binary frames:
//
//	u32 length | u8 type | u8 flags | u64 id | u32 stream | payload
//
// Any other opening line is answered with one text `ERR proto` and the
// connection is closed; so are an unknown tenant (`ERR tenant`), a
// connection beyond MaxConns (`ERR overloaded`) and one arriving during
// drain (`ERR shutdown`).
//
// The id correlates a response with its request and must be unique among
// the connection's outstanding requests: statements, change feeds and a
// replication stream share one id table, and a duplicate is a protocol
// error that closes the connection. The stream groups requests into
// logical sub-connections. Requests on one stream execute in order on one
// server-side session (so transactions work); distinct streams execute
// concurrently on the worker pool and are answered in completion order.
// CANCEL aborts a request by id; a deadline or cancellation that catches a
// statement mid-execution retires only its stream.
//
//	EXEC       u32 timeout_ms | HQL script   → OK output | ERR
//	EXECSHARD  u32 timeout_ms | shard op     → OK shard reply | ERR (Options.Shard)
//	PING                                     → OK "pong"
//	STATS                                    → OK Prometheus text
//	LAG                                      → OK lag payload    (Options.LagProbe)
//	PROMOTE                                  → OK "promoted"     (Options.Promote)
//	SHARDMAP                                 → OK "<id> <count>" (Options.Shard)
//	SUBSCRIBE  u8 resume | u64 epoch | u64 offset | name → SUB frames (Options.Subscribe)
//	SNAP                                     → OK bootstrap      (Options.Repl)
//	REPL       u64 term | u64 epoch | u64 offset → the stream    (Options.Repl)
//	CANCEL, ENDSTREAM, GOODBYE               → no reply
//
// A request whose hook is not configured answers ERR "unsupported", and so
// do EXECSHARD, SUBSCRIBE, SNAP and REPL on a tenant connection: their
// hooks act on the default namespace only. EXEC and EXECSHARD run on the
// worker pool under admission control; everything else is answered inline
// by the connection's reader, so PING, STATS and LAG work even when the
// admission queue is saturated. timeout_ms is the client's deadline in
// milliseconds (0 = none), capped at MaxDeadline.
//
// # Error codes
//
// ERR payloads carry a code, a backoff hint and a message. The codes are a
// closed vocabulary minted in errors.go, each bound to the one exported
// sentinel errors.Is matches for it; docs/HQL.md, "Error codes", says when
// each is sent and whether the request executed. Only proto and toolarge
// close the connection.
//
// # Replication
//
// SNAP answers with an OK frame whose payload is a gob-encoded bootstrap
// (database spec plus the replication position it corresponds to). REPL
// must be the connection's only outstanding request: the server hands the
// connection to Options.Repl.ServeStream, which writes SHIP, HB and ROTATE
// frames carrying the request's id and reads the follower's ACK frames
// until either side closes; an unservable position is answered with an
// ordinary ERR "stale" frame. LAG answers "<staleness_ms> <epoch> <offset>
// <state> <term> <id> <source>" (see wire.LagPayload).
//
// # Subscriptions
//
// SUBSCRIBE opens a change feed over Options.Subscribe (typically a
// view.Manager): each change — snapshot, delta or heartbeat, see
// wire.Change — arrives as one SUB frame carrying the request's id, and
// exactly one ERR frame on that id ends the feed: "canceled" when the
// client cancels it, else "notfound", "stale", "dropped" or "shutdown".
// With resume the feed replays exactly the committed deltas after (epoch,
// offset), or ends "stale" when that position fell out of the retained
// journal.
//
// # Shards
//
// Servers started as cluster members (Options.Shard) answer SHARDMAP with
// "<shard_id> <shard_count>" and EXECSHARD, whose payload is a binary shard
// operation (wire.ShardOp: TUPLES, SELECT, EVAL, and the two-phase-commit
// verbs PREPARE/COMMIT/ABORT/APPLY) instead of an HQL script, answered with
// a binary wire.ShardReply.
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
