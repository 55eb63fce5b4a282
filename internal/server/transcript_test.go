package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"io"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"hrdb/internal/catalog"
	"hrdb/internal/hql"
	"hrdb/internal/shard"
	"hrdb/internal/storage"
	"hrdb/internal/view"
	"hrdb/internal/wire"
)

// testdata/v2_transcript.txt is a whole framed-protocol conversation in two
// connections. On a tenant HELLO: EXEC (ok and err), PING, STATS, LAG,
// PROMOTE, SHARDMAP, then EXECSHARD and SUBSCRIBE refused (they serve the
// default namespace only), GOODBYE. On a default HELLO: EXECSHARD with its
// binary op and reply, SUBSCRIBE with its snapshot and a delta, CANCEL,
// GOODBYE. Every frame whose layout is older than the typed SUB and
// EXECSHARD payloads is byte-identical to the recording made against the
// server of commit e31b16c. Replaying the client's bytes must draw the
// recorded server bytes back exactly, so nothing a framed client sees has
// moved. Records:
//
//	# text        comment
//	> hex         bytes the client sends
//	< hex         bytes the server must answer with, byte for byte
//	<* hex        a frame with this header; its payload (live metrics) is not compared
//	! write       the harness commits `INSTANCE polly UNDER bird;` out of band
//	! reconnect   the client opens a fresh connection
//	! eof         the server closes the connection

// transcriptServer starts the server the transcript was recorded against:
// the default namespace is a durable store with a materialized view "flat"
// over flies, serving SUBSCRIBE and a one-shard node; tenant "acme" holds
// the same relation in memory; LAG and PROMOTE have canned hooks. It
// returns a session on the default store for out-of-band writes.
func transcriptServer(t *testing.T) (*Server, *hql.Session) {
	t.Helper()
	st, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m, err := view.Open(st, view.Options{Heartbeat: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		m.Close()
		st.Close()
	})
	schema := `
		CREATE HIERARCHY Animal;
		CLASS bird IN Animal;
		INSTANCE tweety UNDER bird;
		CREATE RELATION flies (who: Animal);
		ASSERT flies (bird);`
	acme := hql.MemTarget{DB: catalog.New()}
	if _, err := hql.NewSession(acme).Exec(schema); err != nil {
		t.Fatal(err)
	}
	main := view.NewTarget(st, m)
	sess := hql.NewSession(main)
	if _, err := sess.Exec(schema + "CREATE MATERIALIZED VIEW flat AS EXTENSION flies;"); err != nil {
		t.Fatal(err)
	}
	// The feed's snapshot names the view's position: let maintenance catch
	// up with the setup first, as it had when the transcript was recorded.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, main, Options{
		Tenants:   []TenantConfig{{Name: "acme", Target: acme}},
		Subscribe: m,
		Shard:     shard.NewNode(main, 0, 1),
		LagProbe: lagConst(LagInfo{Staleness: 250 * time.Millisecond, Epoch: 3, Offset: 99,
			State: "streaming", Term: 4, ID: "r1", Source: "10.0.0.9:7584"}),
		Promote: func() error { return nil },
	})
	return srv, sess
}

func TestWireTranscript(t *testing.T) {
	raw, err := os.ReadFile("testdata/v2_transcript.txt")
	if err != nil {
		t.Fatal(err)
	}
	srv, sess := transcriptServer(t)
	var c net.Conn
	var br *bufio.Reader
	dial := func() {
		if c != nil {
			c.Close()
		}
		if c, err = net.Dial("tcp", srv.Addr()); err != nil {
			t.Fatal(err)
		}
		br = bufio.NewReader(c)
	}
	dial()
	defer func() { c.Close() }()

	for n, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		kind, arg, _ := strings.Cut(line, " ")
		var want []byte
		if kind == ">" || kind == "<" || kind == "<*" {
			if want, err = hex.DecodeString(arg); err != nil {
				t.Fatalf("line %d: %v", n+1, err)
			}
		}
		c.SetDeadline(time.Now().Add(5 * time.Second))
		switch kind {
		case "#":
		case ">":
			if _, err := c.Write(want); err != nil {
				t.Fatalf("line %d: send: %v", n+1, err)
			}
		case "<":
			got := make([]byte, len(want))
			if _, err := io.ReadFull(br, got); err != nil {
				t.Fatalf("line %d: read: %v", n+1, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("line %d: server sent\n %q\nrecorded\n %q", n+1, got, want)
			}
		case "<*":
			f, err := wire.ReadFrame(br, 1<<24)
			if err != nil {
				t.Fatalf("line %d: read: %v", n+1, err)
			}
			f.Payload = nil
			if got := wire.AppendFrame(nil, f); !bytes.Equal(got, want) {
				t.Fatalf("line %d: frame header %x, recorded %x", n+1, got, want)
			}
		case "!":
			switch arg {
			case "write":
				if _, err := sess.Exec("INSTANCE polly UNDER bird;"); err != nil {
					t.Fatal(err)
				}
			case "reconnect":
				dial()
			case "eof":
				if b, err := br.ReadByte(); err != io.EOF {
					t.Fatalf("line %d: want EOF, got byte %q, %v", n+1, b, err)
				}
			default:
				t.Fatalf("line %d: unknown action %q", n+1, arg)
			}
		default:
			t.Fatalf("line %d: unknown record %q", n+1, kind)
		}
	}
}

// v1Exchange sends raw bytes on a fresh connection and returns everything
// the server answers before it hangs up.
func v1Exchange(t *testing.T, addr, send string) string {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.WriteString(c, send); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("read until close: %v (got %q)", err, got)
	}
	return string(got)
}

// TestV1LineRefused: a line-protocol request gets exactly one text ERR
// proto — which a line client reads as an ordinary error reply — and the
// connection is closed; the statement never runs. So does every other
// opening line that is not a HELLO the server can serve.
func TestV1LineRefused(t *testing.T) {
	srv := startServer(t, newMemTarget(t), Options{})
	want := "ERR proto 0 57\nserver: protocol error: expected HELLO <version> [tenant]\n"
	for _, send := range []string{"EXEC 0 5\nPING;\n", "PING\n", "USE acme\n", "SNAP\n", "REPL 0 0 1\n", "HELLO\n"} {
		if got := v1Exchange(t, srv.Addr(), send); got != want {
			t.Fatalf("%q answered %q, want %q", send, got, want)
		}
	}
	if got := v1Exchange(t, srv.Addr(), "HELLO 1\n"); !strings.HasPrefix(got, "ERR proto 0 ") || strings.Count(got, "\n") != 2 {
		t.Fatalf("HELLO 1 answered %q, want one ERR proto", got)
	}
	if got := v1Exchange(t, srv.Addr(), "HELLO 2 nosuch\n"); got != "ERR tenant 0 23\nunknown tenant \"nosuch\"\n" {
		t.Fatalf("unknown tenant answered %q", got)
	}
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("server unhealthy after refusals: %v", err)
	}
}
