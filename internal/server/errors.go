package server

import (
	"context"
	"errors"

	"hrdb/internal/wire"
)

// This file is the single source of truth for the wire error-code table.
// Every failure class the protocol can report is minted here through
// defineCode, which binds the code to the exported sentinel errors.Is will
// surface for it. Definition is registration: a code cannot exist without
// choosing its sentinel, and the exhaustiveness test in errors_test.go
// walks the registry against the documented code list — the same
// declare-at-definition trick the hql readOnly classifier uses.

// Sentinels for wire error codes. A *ServerError carries the raw code;
// errors.Is maps it onto exactly one of these (or a context error), so
// callers never string-match codes.
var (
	// ErrOverloaded: the request was shed (admission queue or connection
	// limit). The statement was NOT executed, so retrying is always safe;
	// the client does so automatically, honoring the Retry-After hint.
	ErrOverloaded = errors.New("server overloaded")
	// ErrQuotaExceeded: the tenant is over its admission quota or rate
	// limit. Like ErrOverloaded it is a definitive not-executed signal and
	// safe to retry, but backing off harder is the only cure — the budget
	// is the tenant's own, not the server's.
	ErrQuotaExceeded = errors.New("server: tenant quota exceeded")
	// ErrProtocol: a malformed frame or opening exchange (either
	// direction); the connection cannot continue.
	ErrProtocol = wire.ErrProtocol
	// ErrStatementTooLarge: the statement exceeds MaxStatementBytes.
	ErrStatementTooLarge = wire.ErrTooLarge
	// ErrExecFailed: the statement itself failed (parse or execution
	// error). The failure is definitive; retrying re-runs the same script.
	ErrExecFailed = errors.New("server: statement failed")
	// ErrStatementPanicked: the statement panicked inside the engine. The
	// panic was isolated; the session that ran it is retired.
	ErrStatementPanicked = errors.New("server: statement panicked")
	// ErrUnsupported: the request is not enabled on this server (REPL/SNAP
	// without a replication source, PROMOTE/LAG on a primary, SUBSCRIBE
	// without a feed source), or not for this connection's tenant (SNAP,
	// REPL, SUBSCRIBE and EXECSHARD serve the default namespace only).
	ErrUnsupported = errors.New("server: verb not supported")
	// ErrUnknownTenant: HELLO named a tenant this server does not serve. Hard failure — there is no point retrying the same name.
	ErrUnknownTenant = errors.New("server: unknown tenant")
	// ErrStaleReplica: a REPL position this server can no longer serve
	// (the WAL was superseded by a checkpoint); re-bootstrap via SNAP.
	ErrStaleReplica = errors.New("server: replication position not servable")
	// ErrFeedNotFound: SUBSCRIBE named no view or relation. The feed ends;
	// Subscription.Next returns it.
	ErrFeedNotFound = wire.ErrFeedNotFound
	// ErrFeedDropped: the view a feed followed was dropped. The feed ends;
	// Subscription.Next returns it.
	ErrFeedDropped = wire.ErrFeedDropped
)

// ErrClientClosed is returned by every call on a Client after Close,
// including pipelined requests and Subscription.Next calls that were still
// waiting when Close ran — they are failed immediately instead of leaking.
// It is a client-side condition, not a wire code.
var ErrClientClosed = wire.ErrClosed

// Code is a wire protocol error code: the code string of an ERR payload
// (and of the text ERR that refuses a HELLO). Codes compare like strings.
type Code string

// codeSentinels maps every defined Code to its errors.Is sentinel.
var codeSentinels = map[Code]error{}

// defineCode mints a wire code bound to the sentinel ServerError.Is
// surfaces for it. Duplicate names and nil sentinels are programming
// errors, caught at init.
func defineCode(name string, sentinel error) Code {
	c := Code(name)
	if _, dup := codeSentinels[c]; dup {
		panic("server: duplicate wire code " + name)
	}
	if sentinel == nil {
		panic("server: wire code " + name + " defined without a sentinel")
	}
	codeSentinels[c] = sentinel
	return c
}

// Error codes carried by ERR frames. docs/HQL.md, "Error codes", gives the
// semantics of each.
var (
	codeProto       = defineCode("proto", ErrProtocol)
	codeTooLarge    = defineCode("toolarge", ErrStatementTooLarge)
	codeExec        = defineCode("exec", ErrExecFailed)
	codeOverloaded  = defineCode("overloaded", ErrOverloaded)
	codeDeadline    = defineCode("deadline", context.DeadlineExceeded)
	codeCanceled    = defineCode("canceled", context.Canceled)
	codePanic       = defineCode("panic", ErrStatementPanicked)
	codeShutdown    = defineCode("shutdown", ErrServerClosed)
	codeUnsupported = defineCode("unsupported", ErrUnsupported)
	codeQuota       = defineCode("quota", ErrQuotaExceeded)
	codeTenant      = defineCode("tenant", ErrUnknownTenant)
	codeStale       = defineCode("stale", ErrStaleReplica)
	codeNotFound    = defineCode("notfound", ErrFeedNotFound)
	codeDropped     = defineCode("dropped", ErrFeedDropped)
)

// sentinelFor returns the sentinel for a code, nil for codes this build
// does not know (a newer server may mint codes an older client lacks;
// such errors simply match no sentinel).
func sentinelFor(c Code) error { return codeSentinels[c] }
