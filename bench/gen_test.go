package main

import (
	"strings"
	"testing"

	"hrdb"
	"hrdb/internal/hql"
)

func streamsText(t *testing.T, f *fixture, seed int64, sz sizes) string {
	t.Helper()
	var b strings.Builder
	for _, w := range workloads {
		for c := 0; c < maxClients; c++ {
			for _, s := range genStream(f, w, seed, c, sz) {
				b.WriteString(s.Text)
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

func TestSameSeedSameInputs(t *testing.T) {
	for name, sz := range scales {
		a, err := genFixture(7, sz)
		if err != nil {
			t.Fatal(err)
		}
		b, err := genFixture(7, sz)
		if err != nil {
			t.Fatal(err)
		}
		if a.Script != b.Script {
			t.Errorf("%s: same seed, different fixtures", name)
		}
		if streamsText(t, a, 7, sz) != streamsText(t, b, 7, sz) {
			t.Errorf("%s: same seed, different streams", name)
		}
		c, err := genFixture(8, sz)
		if err != nil {
			t.Fatal(err)
		}
		if a.Script == c.Script {
			t.Errorf("%s: seeds 7 and 8 gave the same fixture", name)
		}
		if streamsText(t, a, 7, sz) == streamsText(t, c, 8, sz) {
			t.Errorf("%s: seeds 7 and 8 gave the same streams", name)
		}
	}
}

// Every seed must yield a fixture the engine's ambiguity check accepts:
// genFixture loads what it generated and fails otherwise.
func TestFixtureConsistentAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		f, err := genFixture(seed, scales["full"])
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, rel := range []string{"Flies", "Likes", "Habitat"} {
			if f.counts[rel] == 0 {
				t.Errorf("seed %d: %s is empty", seed, rel)
			}
		}
	}
}

func TestNoStatementNamesAWorkload(t *testing.T) {
	sz := scales["tiny"]
	f, err := genFixture(3, sz)
	if err != nil {
		t.Fatal(err)
	}
	text := f.Script + streamsText(t, f, 3, sz)
	for _, w := range workloads {
		if strings.Contains(text, w.name) {
			t.Errorf("an input mentions workload %q", w.name)
		}
	}
}

// A write cycle ends where it began. At full scale that is checked on the
// ops themselves; at tiny scale the engine runs every client's cycle and
// the database must come back to the fixture exactly.
func TestWriteStreamsSizeNeutral(t *testing.T) {
	for name, sz := range scales {
		f, err := genFixture(5, sz)
		if err != nil {
			t.Fatal(err)
		}
		db := hrdb.NewDatabase()
		if _, err := hrdb.NewSession(db).Exec(f.Script); err != nil {
			t.Fatal(err)
		}
		want := hrdb.Fingerprint(db)
		for _, w := range workloads {
			if !w.writes {
				continue
			}
			for c := 0; c < maxClients; c++ {
				live := map[string]bool{}
				sess := hrdb.NewSession(db)
				writes := 0
				for _, s := range genStream(f, w, 5, c, sz) {
					if s.Class != classWrite {
						continue
					}
					writes++
					stmts, err := hql.Parse(s.Text)
					if err != nil {
						t.Fatalf("%s: %v", s.Text, err)
					}
					for _, o := range opsOf(stmts) {
						k := o.Relation + " " + strings.Join(o.Values, ",")
						if o.Kind == "retract" {
							if !live[k] {
								t.Fatalf("%s/%s client %d retracts %s, which it never inserted", name, w.name, c, k)
							}
							delete(live, k)
						} else {
							live[k] = true
						}
					}
					if name == "tiny" {
						if _, err := sess.Exec(s.Text); err != nil {
							t.Fatalf("%s/%s client %d: %s: %v", name, w.name, c, s.Text, err)
						}
					}
				}
				if writes == 0 || len(live) != 0 {
					t.Errorf("%s/%s client %d: %d writes leave %d tuples behind", name, w.name, c, writes, len(live))
				}
			}
			if got := hrdb.Fingerprint(db); got != want {
				t.Errorf("%s/%s: the cycles changed the database", name, w.name)
			}
		}
		for rel, n := range f.counts {
			r, err := db.Relation(rel)
			if err != nil {
				t.Fatal(err)
			}
			if r.Len() != n {
				t.Errorf("%s: %s holds %d tuples, the fixture %d", name, rel, r.Len(), n)
			}
		}
	}
}
