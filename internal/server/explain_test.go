package server

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestExplainOverBothProtocols: EXPLAIN is an ordinary read-only statement,
// so it must answer over the wire like any other, and planning must not
// attach the result relation the wrapped statement names. (The line
// protocol it was once also checked over is gone.)
func TestExplainOverBothProtocols(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv := startServer(t, newMemTarget(t), Options{})

	t.Run("v2", func(t *testing.T) {
		c, err := Dial(srv.Addr(), WithMaxRetries(0))
		if err != nil {
			t.Fatalf("Dial: %v", err)
		}
		defer c.Close()

		out, err := c.Exec(ctx, "EXPLAIN SELECT FROM Flies WHERE Creature UNDER Penguin;")
		if err != nil {
			t.Fatalf("EXPLAIN SELECT: %v", err)
		}
		for _, want := range []string{"select Flies:", "est candidates:", "full scan:"} {
			if !strings.Contains(out, want) {
				t.Fatalf("EXPLAIN SELECT = %q, missing %q", out, want)
			}
		}

		out, err = c.Exec(ctx, "EXPLAIN JOIN Flies Flies AS j;")
		if err != nil {
			t.Fatalf("EXPLAIN JOIN: %v", err)
		}
		if !strings.HasPrefix(out, "join Flies:") {
			t.Fatalf("EXPLAIN JOIN = %q", out)
		}
		// Planning must not have executed the join: no relation j.
		out, err = c.Exec(ctx, "SHOW RELATIONS;")
		if err != nil {
			t.Fatalf("SHOW RELATIONS: %v", err)
		}
		for _, line := range strings.Split(out, "\n") {
			if strings.TrimSpace(line) == "j" {
				t.Fatalf("EXPLAIN attached the join result: %q", out)
			}
		}

		// Errors in the wrapped statement surface as exec failures.
		if _, err := c.Exec(ctx, "EXPLAIN SELECT FROM NoSuchRel;"); err == nil {
			t.Fatal("EXPLAIN over a missing relation should fail")
		}
	})
}
