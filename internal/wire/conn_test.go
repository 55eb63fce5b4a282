package wire

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// scriptedConn returns a Conn, bounded to 16-byte payloads, over an
// in-memory pipe whose far end answers each request with replies[payload];
// a CANCEL is answered late, with an OK for the id it canceled.
func scriptedConn(t *testing.T, replies map[string]func(id uint64) Frame) *Conn {
	t.Helper()
	client, server := net.Pipe()
	cc := newConn(client, bufio.NewReader(client), 16)
	t.Cleanup(func() {
		cc.Close()
		server.Close()
	})
	go func() {
		br := bufio.NewReader(server)
		for {
			req, err := ReadFrame(br, 64)
			if err != nil {
				return
			}
			reply := replies[string(req.Payload)]
			if req.Type == TypeCancel {
				reply = func(id uint64) Frame { return Frame{Type: TypeOK, ID: id, Payload: []byte("late")} }
			}
			if reply == nil {
				continue
			}
			if WriteFrame(server, reply(req.ID)) != nil {
				return
			}
		}
	}()
	return cc
}

// TestFrameResponseRejectsUnknownType: the reader routes OK and ERR frames
// to their waiters — an ERR as the *Error it carries — and drops a reply
// for a forgotten id. A frame that is no response, a stream frame for an id
// that opened no feed, or a frame over the connection's bound ends the
// connection.
func TestFrameResponseRejectsUnknownType(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	replies := map[string]func(id uint64) Frame{
		"ok":      func(id uint64) Frame { return Frame{Type: TypeOK, ID: id, Payload: []byte("out")} },
		"err":     func(id uint64) Frame { return ErrFrame(id, 0, "exec", 0, "boom") },
		"bad err": func(id uint64) Frame { return Frame{Type: TypeErr, ID: id, Payload: []byte{9}} },
		"request": func(id uint64) Frame { return Frame{Type: TypeExec, ID: id} },
		"sub":     func(id uint64) Frame { return Frame{Type: TypeSub, ID: id + 100} },
		"hb":      func(id uint64) Frame { return Frame{Type: TypeHB, ID: id} },
		"big":     func(id uint64) Frame { return Frame{Type: TypeOK, ID: id, Payload: make([]byte, 17)} },
	}
	do := func(cc *Conn, ctx context.Context, payload string) ([]byte, error) {
		return cc.Do(ctx, TypePing, 0, 0, []byte(payload))
	}

	cc := scriptedConn(t, replies)
	if out, err := do(cc, ctx, "ok"); err != nil || string(out) != "out" {
		t.Fatalf("OK frame: got (%q, %v)", out, err)
	}
	var e *Error
	if _, err := do(cc, ctx, "err"); !errors.As(err, &e) || e.Code != "exec" || e.Msg != "boom" {
		t.Fatalf("ERR frame: got %v", err)
	}
	if _, err := do(cc, ctx, "bad err"); !errors.Is(err, ErrProtocol) {
		t.Fatalf("malformed ERR frame: got %v, want ErrProtocol", err)
	}
	// Unanswered until its CANCEL arrives: the late OK is for an id the
	// connection forgot, so it is dropped and the next request gets its own.
	short, cancelShort := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancelShort()
	if _, err := do(cc, short, "late"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("unanswered request: got %v, want DeadlineExceeded", err)
	}
	if out, err := do(cc, ctx, "ok"); err != nil || string(out) != "out" {
		t.Fatalf("request after a forgotten reply: got (%q, %v)", out, err)
	}
	if !cc.Alive() {
		t.Fatal("connection died on a reply for a forgotten id")
	}

	for name, want := range map[string]error{
		"request": ErrProtocol, // a request-typed frame as a response
		"sub":     ErrProtocol, // a SUB frame for an id that opened no feed
		"hb":      ErrProtocol, // a stream frame answering a single-reply request
		"big":     ErrTooLarge,
	} {
		cc := scriptedConn(t, replies)
		if _, err := do(cc, ctx, name); !errors.Is(err, want) {
			t.Fatalf("%s: got %v, want %v", name, err, want)
		}
		if cc.Alive() {
			t.Fatalf("%s: connection survived", name)
		}
	}
}

// TestFeedOverflow: the reader never waits for a feed's consumer. A feed
// whose queue fills — feedQueue frames, or feedBytes of payload unless the
// queue is empty — is canceled (the server sees CANCEL) and its consumer
// gets every frame queued before the overflow, in order, then ErrOverflow.
// The feed's frames still in flight are dropped rather than taken for a
// desync, and the connection carries on; closing it ends a feed's Next
// with ErrClosed.
func TestFeedOverflow(t *testing.T) {
	ones := make([]int, feedQueue+1)
	for i := range ones {
		ones[i] = 1
	}
	for _, row := range []struct {
		name   string
		sizes  []int // payload sizes the server sends before it expects CANCEL
		queued int   // how many of them the consumer gets
	}{
		{"frames", ones, feedQueue},
		{"bytes", []int{feedBytes / 2, feedBytes / 2, 1}, 2},
		{"one frame over the budget", []int{feedBytes + 1, 1}, 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			client, server := net.Pipe()
			cc := newConn(client, bufio.NewReader(client), feedBytes+1)
			defer cc.Close()
			defer server.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()

			served := make(chan error, 1)
			go func() {
				br := bufio.NewReader(server)
				served <- func() error {
					req, err := ReadFrame(br, 64)
					if err != nil {
						return err
					}
					for i, n := range row.sizes {
						p := make([]byte, n)
						p[0] = byte(i)
						if err := WriteFrame(server, Frame{Type: TypeSub, ID: req.ID, Payload: p}); err != nil {
							return err
						}
					}
					c, err := ReadFrame(br, 64)
					if err != nil || c.Type != TypeCancel || c.ID != req.ID {
						return errors.New("the overflowed feed was not canceled")
					}
					for _, f := range []Frame{{Type: TypeSub, ID: req.ID}, ErrFrame(req.ID, 0, "canceled", 0, "subscription ended")} {
						if err := WriteFrame(server, f); err != nil {
							return err
						}
					}
					return nil
				}()
				if ping, err := ReadFrame(br, 64); err == nil {
					WriteFrame(server, Frame{Type: TypeOK, ID: ping.ID, Payload: []byte("pong")})
				}
				io.Copy(io.Discard, br)
			}()

			fd, err := cc.Open(TypeSubscribe, []byte("feed"), feedBytes+1)
			if err != nil {
				t.Fatal(err)
			}
			if err := <-served; err != nil {
				t.Fatal(err)
			}
			for i := 0; i < row.queued; i++ {
				f, err := fd.Next(ctx)
				if err != nil || f.Type != TypeSub || len(f.Payload) != row.sizes[i] || f.Payload[0] != byte(i) {
					t.Fatalf("frame %d: type 0x%02x, %d bytes, %v", i, f.Type, len(f.Payload), err)
				}
			}
			if f, err := fd.Next(ctx); !errors.Is(err, ErrOverflow) {
				t.Fatalf("after the queued frames: %+v, %v; want ErrOverflow", f, err)
			}
			if out, err := cc.Do(ctx, TypePing, 0, 0, nil); err != nil || string(out) != "pong" {
				t.Fatalf("PING after the overflow: %q, %v", out, err)
			}

			fd, err = cc.Open(TypeSubscribe, []byte("again"), feedBytes+1)
			if err != nil {
				t.Fatal(err)
			}
			go cc.Close()
			if _, err := fd.Next(ctx); !errors.Is(err, ErrClosed) {
				t.Fatalf("Next across Close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestFeedFrameBound: a stream request's frame bound is checked from the
// header, before the payload is read — the far end announces a SUB frame
// over it and never sends the payload — while a Do reply on the same
// connection is held only to the connection's larger bound.
func TestFeedFrameBound(t *testing.T) {
	client, server := net.Pipe()
	cc := newConn(client, bufio.NewReader(client), 64)
	defer cc.Close()
	defer server.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() {
		br := bufio.NewReader(server)
		for {
			req, err := ReadFrame(br, 64)
			if err != nil {
				return
			}
			switch req.Type {
			case TypePing:
				WriteFrame(server, Frame{Type: TypeOK, ID: req.ID, Payload: make([]byte, 64)})
			case TypeSubscribe:
				head := AppendFrame(nil, Frame{Type: TypeSub, ID: req.ID, Payload: make([]byte, 17)})
				server.Write(head[:4+HeaderSize])
			}
		}
	}()

	if out, err := cc.Do(ctx, TypePing, 0, 0, nil); err != nil || len(out) != 64 {
		t.Fatalf("64-byte reply: %d bytes, %v", len(out), err)
	}
	fd, err := cc.Open(TypeSubscribe, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fd.Next(ctx); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("17-byte SUB frame on a 16-byte feed: %v, want ErrTooLarge", err)
	}
	if cc.Alive() {
		t.Fatal("connection survived an oversized frame")
	}
}
