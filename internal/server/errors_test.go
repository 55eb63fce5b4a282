package server

import (
	"context"
	"errors"
	"testing"
)

// TestErrorCodeTableExhaustive pins the wire error-code registry: every
// code the protocol documents exists, maps to exactly the sentinel the
// documentation promises, and nothing else is registered. A new defineCode
// call fails this test until the documented table (docs/HQL.md and this
// list) is updated with it — registration and documentation cannot drift.
func TestErrorCodeTableExhaustive(t *testing.T) {
	documented := map[Code]error{
		codeProto:       ErrProtocol,
		codeTooLarge:    ErrStatementTooLarge,
		codeExec:        ErrExecFailed,
		codeOverloaded:  ErrOverloaded,
		codeDeadline:    context.DeadlineExceeded,
		codeCanceled:    context.Canceled,
		codePanic:       ErrStatementPanicked,
		codeShutdown:    ErrServerClosed,
		codeUnsupported: ErrUnsupported,
		codeQuota:       ErrQuotaExceeded,
		codeTenant:      ErrUnknownTenant,
		codeStale:       ErrStaleReplica,
		codeNotFound:    ErrFeedNotFound,
		codeDropped:     ErrFeedDropped,
	}
	if got, want := len(codeSentinels), len(documented); got != want {
		t.Errorf("registry has %d codes, documentation lists %d", got, want)
	}
	for code, sentinel := range documented {
		got, ok := codeSentinels[code]
		if !ok {
			t.Errorf("documented code %q is not registered", code)
			continue
		}
		if got != sentinel {
			t.Errorf("code %q registered with sentinel %v, documented as %v", code, got, sentinel)
		}
	}
	for code := range codeSentinels {
		if _, ok := documented[code]; !ok {
			t.Errorf("registered code %q is undocumented: add it to docs/HQL.md and this table", code)
		}
	}
}

// TestServerErrorIs: errors.Is on a ServerError matches the code's sentinel
// (and, transitively, whatever that sentinel wraps) without string games.
func TestServerErrorIs(t *testing.T) {
	cases := []struct {
		code Code
		want error
	}{
		{codeOverloaded, ErrOverloaded},
		{codeQuota, ErrQuotaExceeded},
		{codeDeadline, context.DeadlineExceeded},
		{codeCanceled, context.Canceled},
		{codeTenant, ErrUnknownTenant},
		{codeShutdown, ErrServerClosed},
		{codeProto, ErrProtocol},
		{codeTooLarge, ErrStatementTooLarge},
		{codeExec, ErrExecFailed},
		{codePanic, ErrStatementPanicked},
		{codeUnsupported, ErrUnsupported},
		{codeStale, ErrStaleReplica},
		{codeNotFound, ErrFeedNotFound},
		{codeDropped, ErrFeedDropped},
	}
	for _, tc := range cases {
		err := error(&ServerError{Code: tc.code, Msg: "x"})
		if !errors.Is(err, tc.want) {
			t.Errorf("ServerError{%q} does not match %v", tc.code, tc.want)
		}
		// One code, one sentinel: it must not match any other case's sentinel.
		for _, other := range cases {
			if other.want != tc.want && errors.Is(err, other.want) {
				t.Errorf("ServerError{%q} also matches %v", tc.code, other.want)
			}
		}
	}
	// A code this build does not know matches no sentinel at all.
	unknown := error(&ServerError{Code: "fancy-new-code", Msg: "x"})
	for _, tc := range cases {
		if errors.Is(unknown, tc.want) {
			t.Errorf("unknown code matched %v", tc.want)
		}
	}
	// ErrClientClosed is a client-side condition, never a wire code.
	if _, ok := codeSentinels[Code("client-closed")]; ok {
		t.Error("ErrClientClosed must not be a wire code")
	}
	for code, sentinel := range codeSentinels {
		if errors.Is(sentinel, ErrClientClosed) {
			t.Errorf("code %q maps to ErrClientClosed", code)
		}
	}
}
