package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"hrdb/internal/wire"
)

func TestExecPayloadRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		in     time.Duration
		want   time.Duration
		script string
	}{
		{750 * time.Millisecond, 750 * time.Millisecond, "SHOW RELATIONS;"},
		{0, 0, ""},
		{-time.Second, 0, "x"}, // negative clamps to no deadline
		{5000 * time.Hour, math.MaxUint32 * time.Millisecond, "y"},       // overflow clamps to the field max
		{time.Millisecond / 2, 0, "sub-millisecond rounds down to zero"}, // ms granularity
	} {
		timeout, script, err := parseExecPayload(execPayload(tc.in, tc.script))
		if err != nil {
			t.Fatalf("parseExecPayload(%v, %q): %v", tc.in, tc.script, err)
		}
		if timeout != tc.want || script != tc.script {
			t.Errorf("exec payload (%v, %q): got (%v, %q), want (%v, %q)", tc.in, tc.script, timeout, script, tc.want, tc.script)
		}
	}
	if _, _, err := parseExecPayload([]byte{1, 2, 3}); !errors.Is(err, ErrProtocol) {
		t.Errorf("short EXEC payload: got %v, want ErrProtocol", err)
	}
}

// TestFrameResponseRejectsUnknownType: the client routes OK and ERR frames
// to their waiters — an ERR as the *ServerError it carries — and treats any
// other frame type on its connection as a protocol failure that ends it.
func TestFrameResponseRejectsUnknownType(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		br := bufio.NewReader(c)
		if _, err := wire.ReadHello(br); err != nil || wire.WriteHelloOK(c, "v2 tenant=default") != nil {
			return
		}
		for _, answer := range []func(id uint64) wire.Frame{
			func(id uint64) wire.Frame { return okFrame(id, 0, "out") },
			func(id uint64) wire.Frame { return errFrame(id, 0, codeExec, 0, "boom") },
			func(id uint64) wire.Frame { return wire.Frame{Type: wire.TypeExec, ID: id} },
		} {
			req, err := wire.ReadFrame(br, 1<<10)
			if err != nil {
				return
			}
			wire.WriteFrame(c, answer(req.ID))
		}
		io.Copy(io.Discard, br)
	}()
	c, err := Dial(ln.Addr().String(), WithMaxRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	if out, err := c.Stats(ctx); err != nil || out != "out" {
		t.Fatalf("OK frame: got (%q, %v)", out, err)
	}
	var se *ServerError
	if _, err := c.Stats(ctx); !errors.As(err, &se) || se.Code != codeExec || se.Msg != "boom" {
		t.Fatalf("ERR frame: got %v", err)
	}
	if _, err := c.Stats(ctx); !errors.Is(err, ErrProtocol) {
		t.Fatalf("request-typed frame as response: got %v, want ErrProtocol", err)
	}
	if c.cc.Alive() {
		t.Fatal("connection survived a frame that is no response")
	}
}
