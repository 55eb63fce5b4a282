package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"hrdb/internal/catalog"
	"hrdb/internal/core"
)

// The payloads shared between the server, its clients, replication, views
// and shards: one encoder and one decoder per layout. Decoders reject
// anything their encoder cannot produce, so decode∘encode is the identity on
// every payload a decoder accepts (FuzzFrameDecode checks it). EXEC and
// SUBSCRIBE request payloads only travel between the server and its own
// client, so internal/server keeps their codecs.
//
// The typed payloads — a feed's changes, a shard op and its reply — are
// built from one variable-length primitive, the string list:
//
//	u32 count | count × (u32 length | bytes)

// ErrPayload encodes an ERR payload: u8 codeLen | code | u32 retry_ms |
// message. A code longer than the length field holds is truncated; the
// retry hint clamps to the field's range.
func ErrPayload(code string, retryAfter time.Duration, msg string) []byte {
	if len(code) > math.MaxUint8 {
		code = code[:math.MaxUint8]
	}
	ms := min(max(retryAfter.Milliseconds(), 0), math.MaxUint32)
	p := make([]byte, 0, 1+len(code)+4+len(msg))
	p = append(p, byte(len(code)))
	p = append(p, code...)
	p = binary.BigEndian.AppendUint32(p, uint32(ms))
	return append(p, msg...)
}

// ParseErr decodes an ERR payload.
func ParseErr(p []byte) (code string, retryAfter time.Duration, msg string, err error) {
	if len(p) < 1 {
		return "", 0, "", fmt.Errorf("%w: empty ERR payload", ErrProtocol)
	}
	cl := int(p[0])
	if len(p) < 1+cl+4 {
		return "", 0, "", fmt.Errorf("%w: ERR payload truncated", ErrProtocol)
	}
	ms := binary.BigEndian.Uint32(p[1+cl:])
	return string(p[1 : 1+cl]), time.Duration(ms) * time.Millisecond, string(p[1+cl+4:]), nil
}

// ErrFrame builds an ERR response frame.
func ErrFrame(id uint64, stream uint32, code string, retryAfter time.Duration, msg string) Frame {
	return Frame{Type: TypeErr, ID: id, Stream: stream, Payload: ErrPayload(code, retryAfter, msg)}
}

// StreamPos is a replication stream position stamped with a fencing term,
// encoded as u64 term | u64 epoch | u64 offset. It is the whole payload of
// REPL (where to start, and the follower's highest term), ACK (the
// follower's durably applied position), HB (the primary's durable end) and
// ROTATE (the epoch to continue at, offset 0), and the head of SHIP (where
// the raw WAL bytes after it start). Offsets are absolute byte offsets
// within the epoch's WAL.
type StreamPos struct {
	Term   uint64
	Epoch  uint64
	Offset int64
}

// streamPosSize is the encoded size of a StreamPos.
const streamPosSize = 24

// AppendStreamPos encodes p onto dst.
func AppendStreamPos(dst []byte, p StreamPos) []byte {
	dst = binary.BigEndian.AppendUint64(dst, p.Term)
	dst = binary.BigEndian.AppendUint64(dst, p.Epoch)
	return binary.BigEndian.AppendUint64(dst, uint64(p.Offset))
}

// ParseStreamPos decodes a REPL, ACK, HB or ROTATE payload.
func ParseStreamPos(p []byte) (StreamPos, error) {
	if len(p) != streamPosSize {
		return StreamPos{}, fmt.Errorf("%w: stream position %d bytes, want %d", ErrProtocol, len(p), streamPosSize)
	}
	pos, _, err := ParseShip(p)
	return pos, err
}

// ShipPayload encodes a SHIP payload: the position of chunk's first byte,
// then chunk.
func ShipPayload(pos StreamPos, chunk []byte) []byte {
	return append(AppendStreamPos(make([]byte, 0, streamPosSize+len(chunk)), pos), chunk...)
}

// ParseShip decodes a SHIP payload into its position and WAL bytes (which
// alias p).
func ParseShip(p []byte) (StreamPos, []byte, error) {
	if len(p) < streamPosSize {
		return StreamPos{}, nil, fmt.Errorf("%w: stream position %d bytes, want %d", ErrProtocol, len(p), streamPosSize)
	}
	pos := StreamPos{
		Term:   binary.BigEndian.Uint64(p),
		Epoch:  binary.BigEndian.Uint64(p[8:]),
		Offset: int64(binary.BigEndian.Uint64(p[16:])),
	}
	if pos.Offset < 0 {
		return StreamPos{}, nil, fmt.Errorf("%w: negative stream offset", ErrProtocol)
	}
	return pos, p[streamPosSize:], nil
}

// LagInfo is a node's replication state as the LAG frame reports it: what
// lag-bounded read routing and election campaigns decide on.
type LagInfo struct {
	// Staleness is the wall-clock age of the node's view: how long ago it
	// was last known to be caught up with the primary's durable position.
	// Negative means unknown (never caught up, or disconnected with no
	// bound) — routing must treat it as infinitely stale.
	Staleness time.Duration
	// Epoch and Offset are the node's applied replication position.
	Epoch  uint64
	Offset int64
	// State names the node's phase: "streaming", "catchup", "connecting",
	// "promoted", "stopped".
	State string
	// Term is the node's highest fencing term.
	Term uint64
	// ID is the node's election identity ("" when unset).
	ID string
	// Source is the node's upstream, the address it streams from; empty
	// once promoted, when the node's own address is the one to follow.
	Source string
}

// LagPayload renders li as the LAG reply's payload:
// `<staleness_ms> <epoch> <offset> <state> <term> <id> <source>`, with -1
// for unknown staleness and "-" for an empty state, id or source.
func LagPayload(li LagInfo) string {
	ms := int64(-1)
	if li.Staleness >= 0 {
		ms = li.Staleness.Milliseconds()
	}
	dash := func(s string) string {
		if s == "" {
			return "-"
		}
		return s
	}
	state := li.State
	if state == "" {
		state = "unknown"
	}
	return fmt.Sprintf("%d %d %d %s %d %s %s", ms, li.Epoch, li.Offset, state, li.Term, dash(li.ID), dash(li.Source))
}

// ParseLag decodes a LAG payload.
func ParseLag(payload string) (LagInfo, error) {
	f := strings.Fields(payload)
	if len(f) != 7 {
		return LagInfo{}, fmt.Errorf("%w: bad LAG payload %q", ErrProtocol, payload)
	}
	ms, err1 := strconv.ParseInt(f[0], 10, 64)
	epoch, err2 := strconv.ParseUint(f[1], 10, 64)
	offset, err3 := strconv.ParseInt(f[2], 10, 64)
	term, err4 := strconv.ParseUint(f[4], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
		return LagInfo{}, fmt.Errorf("%w: bad LAG payload %q", ErrProtocol, payload)
	}
	li := LagInfo{Staleness: -1, Epoch: epoch, Offset: offset, State: f[3], Term: term}
	if ms >= 0 {
		li.Staleness = time.Duration(ms) * time.Millisecond
	}
	if f[5] != "-" {
		li.ID = f[5]
	}
	if f[6] != "-" {
		li.Source = f[6]
	}
	return li, nil
}

// appendStrings encodes a string list.
func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ss)))
	for _, s := range ss {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// payloadReader walks a typed payload front to back. The first malformed
// field sets err and every later read returns zero values, so a decoder
// reads straight through and checks once, at done.
type payloadReader struct {
	p   []byte
	err error
}

func (r *payloadReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", ErrProtocol, fmt.Sprintf(format, args...))
	}
}

func (r *payloadReader) take(n int) []byte {
	if r.err == nil && len(r.p) < n {
		r.fail("payload truncated")
	}
	if r.err != nil {
		return nil
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b
}

func (r *payloadReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *payloadReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// count reads a u32 element count, refusing one the remaining bytes cannot
// hold at minSize bytes per element — so no hostile count allocates (a
// caller with minSize 0 bounds its own allocation).
func (r *payloadReader) count(minSize int) int {
	b := r.take(4)
	if b == nil {
		return 0
	}
	n := binary.BigEndian.Uint32(b)
	if uint64(n)*uint64(minSize) > uint64(len(r.p)) {
		r.fail("%d entries in %d bytes", n, len(r.p))
		return 0
	}
	return int(n)
}

// strings reads a string list; an empty one decodes as nil.
func (r *payloadReader) strings() []string {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = string(r.take(r.count(1)))
	}
	return ss
}

// done reports the first error, or trailing bytes no field claimed.
func (r *payloadReader) done() error {
	if len(r.p) > 0 {
		r.fail("%d trailing bytes", len(r.p))
	}
	return r.err
}

// Change kinds of a SUBSCRIBE feed.
const (
	ChangeSnapshot  = "snapshot"  // the feed's full row set; resets consumer state
	ChangeDelta     = "delta"     // row changes to apply on top
	ChangeHeartbeat = "heartbeat" // caught up through the position, no changes
)

// changeKinds numbers the change kinds on the wire.
var changeKinds = []string{1: ChangeSnapshot, 2: ChangeDelta, 3: ChangeHeartbeat}

// maxChangeBytes bounds one change payload, and so the row set a feed can
// snapshot: it is the WAL's own frame cap, so a feed carries anything the
// log can.
const maxChangeBytes = 16 << 20

// Change is one change of a SUBSCRIBE feed and the whole payload of a SUB
// frame:
//
//	u8 kind | u64 epoch | u64 offset | rows              snapshot
//	u8 kind | u64 epoch | u64 offset | added | removed   delta
//	u8 kind | u64 epoch | u64 offset                     heartbeat
//
// rows, added and removed are string lists. Epoch/Offset is the storage WAL
// position after applying the change: a feed resumed there continues with
// exactly the committed changes after it.
type Change struct {
	Kind           string // ChangeSnapshot | ChangeDelta | ChangeHeartbeat
	Epoch          uint64
	Offset         int64
	Rows           []string // snapshot: the full row set, sorted
	Added, Removed []string // delta: row changes, sorted
}

// ChangePayload encodes a SUB payload. It refuses an unknown kind and a
// payload over maxChangeBytes.
func ChangePayload(c Change) ([]byte, error) {
	k := slices.Index(changeKinds, c.Kind)
	if k < 1 {
		return nil, fmt.Errorf("wire: unknown change kind %q", c.Kind)
	}
	p := append(make([]byte, 0, 64), byte(k))
	p = binary.BigEndian.AppendUint64(p, c.Epoch)
	p = binary.BigEndian.AppendUint64(p, uint64(c.Offset))
	switch c.Kind {
	case ChangeSnapshot:
		p = appendStrings(p, c.Rows)
	case ChangeDelta:
		p = appendStrings(appendStrings(p, c.Added), c.Removed)
	}
	if len(p) > maxChangeBytes {
		return nil, fmt.Errorf("wire: %s of %d bytes exceeds the %d-byte change cap", c.Kind, len(p), maxChangeBytes)
	}
	return p, nil
}

// ParseChange decodes a SUB payload.
func ParseChange(p []byte) (Change, error) {
	if len(p) > maxChangeBytes {
		return Change{}, fmt.Errorf("%w: change of %d bytes", ErrProtocol, len(p))
	}
	r := payloadReader{p: p}
	var c Change
	if k := int(r.u8()); k < len(changeKinds) {
		c.Kind = changeKinds[k]
	}
	c.Epoch = r.u64()
	c.Offset = int64(r.u64())
	switch {
	case r.err != nil:
	case c.Kind == "":
		r.fail("unknown change kind")
	case c.Offset < 0:
		r.fail("negative change offset")
	case c.Kind == ChangeSnapshot:
		c.Rows = r.strings()
	case c.Kind == ChangeDelta:
		c.Added, c.Removed = r.strings(), r.strings()
	}
	if err := r.done(); err != nil {
		return Change{}, err
	}
	return c, nil
}

// Why a change feed ended on the server's side. A feed source returns one
// of these; the server ends the feed with the matching ERR code.
var (
	ErrFeedNotFound = errors.New("no such view or relation")                     // notfound
	ErrFeedDropped  = errors.New("view dropped")                                 // dropped
	ErrFeedStale    = errors.New("resume position outside the retained journal") // stale
	ErrFeedClosed   = errors.New("feed source closing")                          // shutdown
)

// Shard operation verbs.
const (
	ShardTuples  = "TUPLES"  // a relation's stored tuples → Tuples
	ShardSelect  = "SELECT"  // per-shard selection push-down → Tuples
	ShardEval    = "EVAL"    // batch-evaluate Items → Verdicts
	ShardPrepare = "PREPARE" // validate and journal Ops under GID → Status
	ShardCommit  = "COMMIT"  // apply GID's journal → Status "committed" | "unknown"
	ShardAbort   = "ABORT"   // drop GID's journal → Status
	ShardApply   = "APPLY"   // apply Ops under GID unless already done → Status
)

// ShardOp is a shard operation, the payload of an EXECSHARD frame after its
// u32 timeout_ms:
//
//	head   string list [verb, relation, gid]
//	conds  string list [attribute, class, attribute, class, …]
//	items  u32 n | n × string list
//	ops    u32 m | m × (u8 flags | string list [kind, relation, values…])
//
// flags bit 0 is catalog.TxOp.Bare; no other bit is set.
type ShardOp struct {
	Verb     string
	Relation string         // TUPLES, SELECT, EVAL
	GID      string         // PREPARE, COMMIT, ABORT, APPLY
	Conds    [][2]string    // SELECT: (attribute, class) conditions
	Items    []core.Item    // EVAL
	Ops      []catalog.TxOp // PREPARE, APPLY
}

// AppendShardOp encodes a shard op onto dst.
func AppendShardOp(dst []byte, op ShardOp) []byte {
	dst = appendStrings(dst, []string{op.Verb, op.Relation, op.GID})
	conds := make([]string, 0, 2*len(op.Conds))
	for _, c := range op.Conds {
		conds = append(conds, c[0], c[1])
	}
	dst = appendStrings(dst, conds)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(op.Items)))
	for _, it := range op.Items {
		dst = appendStrings(dst, it)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(op.Ops)))
	for _, o := range op.Ops {
		var flags byte
		if o.Bare {
			flags = 1
		}
		dst = appendStrings(append(dst, flags), append([]string{o.Kind, o.Relation}, o.Values...))
	}
	return dst
}

// ParseShardOp decodes a shard op.
func ParseShardOp(p []byte) (ShardOp, error) {
	r := payloadReader{p: p}
	var op ShardOp
	if head := r.strings(); len(head) == 3 {
		op.Verb, op.Relation, op.GID = head[0], head[1], head[2]
	} else {
		r.fail("shard op head of %d fields", len(head))
	}
	conds := r.strings()
	if len(conds)%2 != 0 {
		r.fail("dangling shard op condition")
	}
	for i := 0; i+1 < len(conds); i += 2 {
		op.Conds = append(op.Conds, [2]string{conds[i], conds[i+1]})
	}
	if n := r.count(4); n > 0 {
		op.Items = make([]core.Item, n)
		for i := range op.Items {
			op.Items[i] = r.strings()
		}
	}
	if n := r.count(5); n > 0 {
		op.Ops = make([]catalog.TxOp, n)
		for i := range op.Ops {
			flags, f := r.u8(), r.strings()
			if flags > 1 || len(f) < 2 {
				r.fail("malformed shard op entry")
				break
			}
			op.Ops[i] = catalog.TxOp{Kind: f[0], Relation: f[1], Values: append([]string(nil), f[2:]...), Bare: flags == 1}
		}
	}
	if err := r.done(); err != nil {
		return ShardOp{}, err
	}
	return op, nil
}

// ShardReply is the OK payload answering an EXECSHARD:
//
//	status    string list [status]
//	tuples    u32 n | n × (u8 sign | string list item)
//	verdicts  u32 m | ⌈m/8⌉ bytes, verdict i at bit i%8 of byte i/8
//
// Padding bits are zero.
type ShardReply struct {
	Status   string       // PREPARE "prepared <n>", COMMIT "committed" | "unknown", ABORT "aborted", APPLY "applied"
	Tuples   []core.Tuple // TUPLES, SELECT
	Verdicts []bool       // EVAL, in item order
}

// ShardReplyPayload encodes a shard reply.
func ShardReplyPayload(rep ShardReply) []byte {
	p := appendStrings(nil, []string{rep.Status})
	p = binary.BigEndian.AppendUint32(p, uint32(len(rep.Tuples)))
	for _, t := range rep.Tuples {
		var sign byte
		if t.Sign {
			sign = 1
		}
		p = appendStrings(append(p, sign), t.Item)
	}
	p = binary.BigEndian.AppendUint32(p, uint32(len(rep.Verdicts)))
	bits := make([]byte, (len(rep.Verdicts)+7)/8)
	for i, v := range rep.Verdicts {
		if v {
			bits[i/8] |= 1 << (i % 8)
		}
	}
	return append(p, bits...)
}

// ParseShardReply decodes a shard reply.
func ParseShardReply(p []byte) (ShardReply, error) {
	r := payloadReader{p: p}
	var rep ShardReply
	if status := r.strings(); len(status) == 1 {
		rep.Status = status[0]
	} else {
		r.fail("shard reply status of %d fields", len(status))
	}
	if n := r.count(5); n > 0 {
		rep.Tuples = make([]core.Tuple, n)
		for i := range rep.Tuples {
			sign := r.u8()
			if sign > 1 {
				r.fail("tuple sign byte %d", sign)
			}
			rep.Tuples[i] = core.Tuple{Item: r.strings(), Sign: sign == 1}
		}
	}
	if n := r.count(0); n > 0 {
		if bits := r.take((n + 7) / 8); bits != nil {
			rep.Verdicts = make([]bool, n)
			for i := range rep.Verdicts {
				rep.Verdicts[i] = bits[i/8]&(1<<(i%8)) != 0
			}
			if n%8 != 0 && bits[len(bits)-1]>>(n%8) != 0 {
				r.fail("nonzero verdict padding")
			}
		}
	}
	if err := r.done(); err != nil {
		return ShardReply{}, err
	}
	return rep, nil
}
