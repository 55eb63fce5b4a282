package hrdb_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hrdb"
)

// obsGateTarget parks mutations on a gate so the server's worker pool and
// admission queue can be saturated deterministically; reads pass through.
type obsGateTarget struct {
	hrdb.Target
	gate    chan struct{}
	waiting atomic.Int64
}

func (g *obsGateTarget) Apply(ops []hrdb.TxOp) ([]string, error) {
	if len(ops) == 1 && ops[0].Kind == "assert" {
		g.waiting.Add(1)
		defer g.waiting.Add(-1)
		<-g.gate
	}
	return g.Target.Apply(ops)
}

// promValue extracts an unlabeled series value from Prometheus text.
func promValue(text, name string) (uint64, bool) {
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseUint(fields[1], 10, 64)
			return v, err == nil
		}
	}
	return 0, false
}

// TestMetricsEndpointUnderLoad is the acceptance test for the observability
// layer: a server run with a metrics endpoint, flooded past its admission
// capacity, must expose Prometheus text over HTTP in which the shed counter
// and the request-latency histogram have provably moved.
func TestMetricsEndpointUnderLoad(t *testing.T) {
	db := hrdb.NewDatabase()
	if _, err := hrdb.NewSession(db).Exec(`
		CREATE HIERARCHY Animal;
		CLASS Bird IN Animal;
		CREATE RELATION Flies (Creature: Animal);
		ASSERT Flies (Bird);
	`); err != nil {
		t.Fatalf("fixture: %v", err)
	}
	gate := &obsGateTarget{Target: hrdb.NewMemTarget(db), gate: make(chan struct{})}

	const workers, queue = 1, 1
	capacity := workers + queue
	srv := hrdb.NewServer(gate, hrdb.ServerOptions{
		Workers:     workers,
		QueueDepth:  queue,
		MaxConns:    64,
		MaxDeadline: -1, // the gated Assert ignores ctx
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	ms, err := hrdb.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeMetrics: %v", err)
	}
	defer ms.Close()

	shed0 := hrdb.Metrics().Counters["hrdb_server_shed_total"]

	var wg sync.WaitGroup
	results := make(chan error, 4*capacity)
	launch := func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := hrdb.Dial(srv.Addr(), hrdb.WithMaxRetries(0))
				if err != nil {
					results <- err
					return
				}
				defer c.Close()
				_, err = c.Exec(context.Background(), "ASSERT Flies (Bird);")
				results <- err
			}()
		}
	}
	// Saturate deterministically: park the worker, then fill the queue,
	// then flood. Every flood request must be shed.
	launch(workers)
	deadline := time.Now().Add(5 * time.Second)
	for gate.waiting.Load() < int64(workers) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d statements parked", gate.waiting.Load())
		}
		time.Sleep(time.Millisecond)
	}
	launch(queue)
	time.Sleep(100 * time.Millisecond)
	flood := 3 * capacity
	launch(flood)
	for i := 0; i < flood; i++ {
		if err := <-results; !errors.Is(err, hrdb.ErrOverloaded) {
			t.Fatalf("flood request %d: got %v, want ErrOverloaded", i, err)
		}
	}

	// Scrape the endpoint while the server is still saturated.
	url := fmt.Sprintf("http://%s/metrics", ms.Addr())
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	text := string(body)

	shed, ok := promValue(text, "hrdb_server_shed_total")
	if !ok {
		t.Fatalf("hrdb_server_shed_total missing from scrape:\n%s", text)
	}
	if shed < shed0+uint64(flood) {
		t.Errorf("scraped shed_total = %d, want ≥ %d", shed, shed0+uint64(flood))
	}
	if n, ok := promValue(text, "hrdb_server_request_duration_ns_count"); !ok || n == 0 {
		t.Errorf("request-duration histogram count = %d (present=%v), want > 0", n, ok)
	}
	// Series from every instrumented layer are registered the moment the
	// facade is linked in — the scrape must carry them all.
	for _, series := range []string{
		"hrdb_core_cache_hits_total",
		"hrdb_storage_wal_records_total",
		"hrdb_hql_statements_total",
		"hrdb_server_active_conns",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("scrape missing %s", series)
		}
	}

	// The facade snapshot agrees with the wire exposition.
	if snap := hrdb.Metrics().Counters["hrdb_server_shed_total"]; snap < shed0+uint64(flood) {
		t.Errorf("Metrics() shed_total = %d, want ≥ %d", snap, shed0+uint64(flood))
	}

	close(gate.gate) // release: every admitted request completes
	for i := 0; i < capacity; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
	wg.Wait()

	// The pprof surface rides on the same endpoint.
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/cmdline", ms.Addr()))
	if err != nil {
		t.Fatalf("GET pprof: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof status = %d", resp.StatusCode)
	}
}

// TestConsistencyCheckMetrics reads the two series an operator watches to
// see whether writes are verified by region or by whole relation: the first
// write to a relation and the first after a hierarchy edit run the full
// check, every other write the delta check, and the candidates histogram
// records how many tuples each run was handed. A SELECT on a verified
// relation runs no check; the first after a hierarchy edit runs the full
// check once, to renew the stamp.
func TestConsistencyCheckMetrics(t *testing.T) {
	const full, delta = `hrdb_core_consistency_checks_total{scope="full"}`, `hrdb_core_consistency_checks_total{scope="delta"}`
	sess := hrdb.NewSession(hrdb.NewDatabase())
	step := func(script string, wantFull, wantDelta uint64) {
		t.Helper()
		before := hrdb.Metrics()
		if _, err := sess.Exec(script); err != nil {
			t.Fatalf("%s: %v", script, err)
		}
		last := hrdb.Metrics()
		if got := last.Counters[full] - before.Counters[full]; got != wantFull {
			t.Errorf("%s: %d full checks, want %d", script, got, wantFull)
		}
		if got := last.Counters[delta] - before.Counters[delta]; got != wantDelta {
			t.Errorf("%s: %d delta checks, want %d", script, got, wantDelta)
		}
		runs := wantFull + wantDelta
		if got := last.Histograms["hrdb_core_consistency_candidates"].Count - before.Histograms["hrdb_core_consistency_candidates"].Count; got != runs {
			t.Errorf("%s: candidates histogram took %d observations, want %d", script, got, runs)
		}
	}
	step(`CREATE HIERARCHY Animal; CLASS Bird IN Animal; CLASS Penguin UNDER Bird IN Animal;
		INSTANCE Tweety UNDER Bird IN Animal; CREATE RELATION Flies (Creature: Animal);`, 0, 0)
	step("ASSERT Flies (Bird);", 1, 0)  // never verified: full
	step("DENY Flies (Penguin);", 0, 1) // verified: delta
	step("BEGIN; ASSERT Flies (Tweety); RETRACT Flies (Penguin); COMMIT;", 0, 1)
	step("INSTANCE Pingu UNDER Penguin IN Animal; DENY Flies (Pingu);", 1, 0) // hierarchy moved: full
	step("RETRACT Flies (Pingu);", 0, 1)
	const sel = "SELECT FROM Flies WHERE Creature UNDER Bird;"
	step(sel, 0, 0)                                         // verified: no repair sweep
	step("INSTANCE Polly UNDER Bird IN Animal; "+sel, 1, 0) // hierarchy moved: one verification
	step(sel, 0, 0)
	if !strings.Contains(hrdb.MetricsText(), delta) {
		t.Errorf("text exposition lacks %s", delta)
	}
}
