package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"
)

// maxHelloReply bounds the text reply to HELLO a client will read.
const maxHelloReply = 64 << 10

// Dial opens a connection to addr and runs the client side of the opening
// exchange, requesting tenant ("" = the default namespace). timeout bounds
// the dial and the exchange together (zero = no bound); ctx aborts both.
// It returns the connection, the reader owning its buffered bytes, and the
// namespace the server resolved. A refusal is returned as *Error.
func Dial(ctx context.Context, addr string, timeout time.Duration, tenant string) (net.Conn, *bufio.Reader, string, error) {
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, nil, "", err
	}
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
	}
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	br := bufio.NewReader(conn)
	resolved, err := hello(conn, br, tenant)
	if !stop() || err != nil {
		conn.Close()
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, nil, "", ctxErr
		}
		return nil, nil, "", err
	}
	conn.SetDeadline(time.Time{})
	return conn, br, resolved, nil
}

// hello sends the HELLO line and reads the server's text reply.
func hello(conn net.Conn, br *bufio.Reader, tenant string) (string, error) {
	line := "HELLO 2\n"
	if tenant != "" {
		line = "HELLO 2 " + tenant + "\n"
	}
	if _, err := io.WriteString(conn, line); err != nil {
		return "", err
	}
	status, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	f := strings.Fields(status)
	var retryMS int64
	switch {
	case len(f) == 2 && f[0] == "OK":
	case len(f) == 4 && f[0] == "ERR":
		if retryMS, err = strconv.ParseInt(f[2], 10, 64); err != nil || retryMS < 0 {
			return "", fmt.Errorf("%w: bad HELLO reply %q", ErrProtocol, status)
		}
	default:
		return "", fmt.Errorf("%w: bad HELLO reply %q", ErrProtocol, status)
	}
	n, err := strconv.Atoi(f[len(f)-1])
	if err != nil || n < 0 || n > maxHelloReply {
		return "", fmt.Errorf("%w: bad HELLO reply %q", ErrProtocol, status)
	}
	body := make([]byte, n+1)
	if _, err := io.ReadFull(br, body); err != nil {
		return "", err
	}
	if body[n] != '\n' {
		return "", fmt.Errorf("%w: unterminated HELLO reply", ErrProtocol)
	}
	payload := string(body[:n])
	if f[0] == "ERR" {
		return "", &Error{Code: f[1], RetryAfter: time.Duration(retryMS) * time.Millisecond, Msg: payload}
	}
	words := strings.Fields(payload)
	if len(words) == 0 || words[0] != "v2" {
		return "", fmt.Errorf("%w: unexpected HELLO reply %q", ErrProtocol, payload)
	}
	resolved := tenant
	for _, w := range words[1:] {
		if t, ok := strings.CutPrefix(w, "tenant="); ok {
			resolved = t
		}
	}
	return resolved, nil
}

// ReadHello reads a connection's opening line on the server side and
// returns the tenant it requests ("" = default). Any line other than
// `HELLO <version ≥ 2> [tenant]` fails with ErrProtocol; so does a line
// longer than br's buffer.
func ReadHello(br *bufio.Reader) (string, error) {
	line, err := br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		return "", fmt.Errorf("%w: opening line too long", ErrProtocol)
	}
	if err != nil {
		return "", err
	}
	f := strings.Fields(string(line))
	if len(f) < 2 || len(f) > 3 || f[0] != "HELLO" {
		return "", fmt.Errorf("%w: expected HELLO <version> [tenant]", ErrProtocol)
	}
	if v, err := strconv.Atoi(f[1]); err != nil || v < 2 {
		return "", fmt.Errorf("%w: unsupported protocol version %q", ErrProtocol, f[1])
	}
	if len(f) == 3 {
		return f[2], nil
	}
	return "", nil
}

// WriteHelloOK accepts a connection: the text reply after which both sides
// speak frames.
func WriteHelloOK(w io.Writer, payload string) error {
	_, err := fmt.Fprintf(w, "OK %d\n%s\n", len(payload), payload)
	return err
}

// WriteHelloErr refuses a connection with a text ERR reply; the caller
// closes it afterwards.
func WriteHelloErr(w io.Writer, code string, retryAfter time.Duration, msg string) error {
	_, err := fmt.Fprintf(w, "ERR %s %d %d\n%s\n", code, retryAfter.Milliseconds(), len(msg), msg)
	return err
}
