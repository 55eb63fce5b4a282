package hrdb_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"hrdb"
)

// derivedScript stores `… AS` results of every kind under the forbid
// policy: B and F hold the exception -Penguin under +Bird, F carries its
// source's on_path mode (a PROJECT that drops nothing keeps it), and J
// holds instance tuples that a cluster places on their home shards.
const derivedScript = `CREATE HIERARCHY Animal;
CLASS Bird IN Animal;
CLASS Penguin UNDER Bird;
INSTANCE Tweety UNDER Bird;
INSTANCE Robin UNDER Bird;
INSTANCE Paul UNDER Penguin;
CREATE HIERARCHY Zone;
INSTANCE Aviary IN Zone;
INSTANCE Pond IN Zone;
CREATE RELATION Flies (Creature: Animal);
CREATE RELATION Lives (Creature: Animal, Place: Zone);
ASSERT Flies (Bird);
DENY Flies (Penguin);
ASSERT Lives (Bird, Aviary);
ASSERT Lives (Robin, Pond);
ASSERT Lives (Paul, Pond);
SET MODE Flies on_path;
SET POLICY forbid;
SELECT FROM Flies WHERE Creature UNDER Bird AS B;
PROJECT Flies ON (Creature) AS F;
JOIN Flies Lives AS J;
PROJECT J ON (Place) AS P;
UNION Flies B AS U;
SET POLICY allow;`

// derivedWrites writes to, consolidates and drops the results.
const derivedWrites = `DENY B (Robin);
DENY F (Tweety);
ASSERT J (Tweety, Pond);
RETRACT J (Tweety, Pond);
BEGIN;
DENY J (Robin, Aviary);
ASSERT U (Paul);
COMMIT;
CONSOLIDATE U;
DROP RELATION P;
SELECT FROM U WHERE Creature UNDER Penguin AS Q;`

// topologyState is what one topology holds after the scripts: its DUMP
// and its canonical fingerprint.
type topologyState struct{ dump, fingerprint string }

func dbState(t *testing.T, db *hrdb.Database) topologyState {
	t.Helper()
	dump, err := hrdb.NewSession(db).Exec("DUMP;")
	must(t, err)
	return topologyState{dump, hrdb.Fingerprint(db)}
}

// TestShardDerivedResultsMatchEveryTopology: an `… AS` result is an
// ordinary logged relation, so one script of results and writes to them
// leaves the same state in memory, in a store reopened with or without a
// checkpoint, on a caught-up replica, and on 1- and 3-shard clusters.
func TestShardDerivedResultsMatchEveryTopology(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	states := map[string]topologyState{}

	db := hrdb.NewDatabase()
	sess := hrdb.NewSession(db)
	for _, s := range []string{derivedScript, derivedWrites} {
		_, err := sess.Exec(s)
		must(t, err)
	}
	states["memory"] = dbState(t, db)
	if dump := states["memory"].dump; !strings.Contains(dump, "SET MODE F on_path;") {
		t.Fatalf("F lost its source's mode:\n%s", dump)
	}

	for _, checkpoint := range []bool{false, true} {
		dir := t.TempDir()
		store, err := hrdb.OpenStore(dir)
		must(t, err)
		sess := hrdb.NewStoreSession(store)
		_, err = sess.Exec(derivedScript)
		must(t, err)
		if checkpoint {
			must(t, store.Checkpoint())
		}
		_, err = sess.Exec(derivedWrites)
		must(t, err)
		must(t, store.Close())
		store, err = hrdb.OpenStore(dir)
		must(t, err)
		name := "store reopened without a checkpoint"
		if checkpoint {
			name = "store reopened after a checkpoint"
		}
		states[name] = dbState(t, store.Database())
		must(t, store.Close())
	}

	store, err := hrdb.OpenStore(t.TempDir())
	must(t, err)
	primary := hrdb.NewServer(store, hrdb.ServerOptions{
		CloseTarget: true,
		Repl:        hrdb.NewPrimary(store, hrdb.PrimaryOptions{HeartbeatInterval: 10 * time.Millisecond}),
	})
	must(t, primary.Start("127.0.0.1:0"))
	defer primary.Shutdown(context.Background())
	replica := hrdb.NewReplica(primary.Addr(), hrdb.ReplicaOptions{ReconnectBackoff: 10 * time.Millisecond})
	defer replica.Close()
	psess := hrdb.NewStoreSession(store)
	for _, s := range []string{derivedScript, derivedWrites} {
		_, err := psess.Exec(s)
		must(t, err)
	}
	epoch, offset := store.Position()
	for st := replica.Status(); st.Staleness < 0 || st.Epoch != epoch || st.Offset != offset; st = replica.Status() {
		if ctx.Err() != nil {
			t.Fatalf("replica never caught up: primary at %d/%d, replica %s at %d/%d", epoch, offset, st.State, st.Epoch, st.Offset)
		}
		time.Sleep(5 * time.Millisecond)
	}
	states["replica"] = dbState(t, replica.Database())

	for _, n := range []int{1, 3} {
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = startShardServer(t, i, n)
		}
		cluster, err := hrdb.DialCluster(ctx, addrs)
		must(t, err)
		defer cluster.Close()
		for _, s := range []string{derivedScript, derivedWrites} {
			_, err := cluster.Exec(ctx, s)
			must(t, err)
		}
		dump, err := cluster.Exec(ctx, "DUMP;")
		must(t, err)
		fp, err := cluster.Fingerprint(ctx)
		must(t, err)
		states[map[int]string{1: "1-shard cluster", 3: "3-shard cluster"}[n]] = topologyState{dump, fp}
	}

	want := states["memory"]
	for name, got := range states {
		if got != want {
			t.Errorf("%s diverges from memory:\n%s\nfingerprint %s\nmemory:\n%s\nfingerprint %s",
				name, got.dump, got.fingerprint, want.dump, want.fingerprint)
		}
	}
}
