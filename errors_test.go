package hrdb_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"hrdb"
)

// TestErrorContract pins, through the facade alone, every errors.Is promise
// the docs make: each row of docs/HQL.md's wire error-code table, each
// sentinel its "Errors" section lists (reached by an HQL statement run in a
// Session), and the client-closed and read-only-replica sentinels.
func TestErrorContract(t *testing.T) {
	t.Run("wire codes", func(t *testing.T) {
		for _, row := range []struct {
			code hrdb.ErrorCode
			want error
		}{
			{"proto", hrdb.ErrProtocol},
			{"toolarge", hrdb.ErrStatementTooLarge},
			{"exec", hrdb.ErrExecFailed},
			{"overloaded", hrdb.ErrOverloaded},
			{"quota", hrdb.ErrQuotaExceeded},
			{"tenant", hrdb.ErrUnknownTenant},
			{"deadline", context.DeadlineExceeded},
			{"canceled", context.Canceled},
			{"panic", hrdb.ErrStatementPanicked},
			{"shutdown", hrdb.ErrServerClosed},
			{"unsupported", hrdb.ErrUnsupported},
			{"stale", hrdb.ErrStaleReplica},
			{"notfound", hrdb.ErrFeedNotFound},
			{"dropped", hrdb.ErrFeedDropped},
		} {
			if err := error(&hrdb.ServerError{Code: row.code}); !errors.Is(err, row.want) {
				t.Errorf("code %q: errors.Is(%v, %v) = false", row.code, err, row.want)
			}
		}
	})

	t.Run("hql", func(t *testing.T) {
		const setup = `CREATE HIERARCHY Animal;
CLASS Bird IN Animal;
INSTANCE Tweety UNDER Bird;
INSTANCE Paul UNDER Bird;
CREATE HIERARCHY Colour;
INSTANCE Red UNDER Colour;
CREATE RELATION Flies (Creature: Animal);
CREATE RELATION Red (Shade: Colour);
ASSERT Flies (Tweety);
`
		for _, row := range []struct {
			stmt string
			want error
		}{
			{"CREATE RELATION Twice (A: Animal, A: Animal);", hrdb.ErrSchema},
			{"SELECT FROM Flies WHERE Wings UNDER Bird;", hrdb.ErrUnknownAttribute},
			{"ASSERT Flies (Animal, Tweety);", hrdb.ErrArity},
			{"ASSERT Flies (Nemo);", hrdb.ErrUnknownValue},
			{"SET MODE Flies bogus;", hrdb.ErrUnknownMode},
			{"DENY Flies (Tweety);", hrdb.ErrContradiction},
			{"UNION Flies Red AS Both;", hrdb.ErrIncompatible},
			{"INSTANCE Robin UNDER Nope;", hrdb.ErrNoSuchClass},
			{"CREATE HIERARCHY Animal;", hrdb.ErrExists},
			{"HOLDS Swims (Tweety);", hrdb.ErrNotFound},
			{"SET POLICY forbid; ASSERT Flies (Bird); DENY Flies (Paul);", hrdb.ErrExceptionForbidden},
		} {
			sess := hrdb.NewSession(hrdb.NewDatabase())
			if _, err := sess.Exec(setup); err != nil {
				t.Fatalf("setup: %v", err)
			}
			if _, err := sess.Exec(row.stmt); !errors.Is(err, row.want) {
				t.Errorf("%s: err = %v, want errors.Is %v", row.stmt, err, row.want)
			}
		}
	})

	t.Run("client closed", func(t *testing.T) {
		srv := hrdb.NewServer(hrdb.NewMemTarget(hrdb.NewDatabase()), hrdb.ServerOptions{})
		must(t, srv.Start("127.0.0.1:0"))
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		c, err := hrdb.Dial(srv.Addr())
		must(t, err)
		must(t, c.Close())
		if _, err := c.Exec(context.Background(), "SHOW RELATIONS;"); !errors.Is(err, hrdb.ErrClientClosed) {
			t.Errorf("Exec after Close: err = %v, want ErrClientClosed", err)
		}
	})

	t.Run("read-only replica", func(t *testing.T) {
		// Nothing listens on port 1; the replica keeps retrying its primary
		// in the background and stays unpromoted.
		replica := hrdb.NewReplica("127.0.0.1:1", hrdb.ReplicaOptions{})
		defer replica.Close()
		op := hrdb.TxOp{Kind: "create_hierarchy", Relation: "Animal"}
		if _, err := (hrdb.ReplicaTarget{R: replica}).Apply([]hrdb.TxOp{op}); !errors.Is(err, hrdb.ErrReadOnlyReplica) {
			t.Errorf("Apply on a replica: err = %v, want ErrReadOnlyReplica", err)
		}
	})
}
