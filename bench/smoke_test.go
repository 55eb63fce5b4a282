package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
	"time"
)

type manifestMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func readManifest(t *testing.T) (e2e, layers []manifestMetric, names []string) {
	t.Helper()
	var m struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []manifestMetric `json:"end_to_end"`
		PerLayer  []manifestMetric `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &m); err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	return m.EndToEnd, m.PerLayer, names
}

// The tables in metrics.go and workloads.go are what the program emits;
// BENCHMARK.json is what the driver expects. They must say the same.
func TestManifestMatchesTables(t *testing.T) {
	e2e, layers, names := readManifest(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	check := func(kind string, got []manifestMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, metrics.go %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), metrics.go %s (%s)", kind, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
			if !valid.MatchString(w.name) || w.unit == "" {
				t.Errorf("%s: bad name or unit: %q %q", kind, w.name, w.unit)
			}
		}
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, workloads.go %d", len(names), len(workloads))
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Errorf("workload %d: %s vs %s", i, names[i], w.name)
		}
	}
}

func tinyConfig(t *testing.T, w *workload, trace bool) *config {
	return &config{w: w, seed: 1, window: 400 * time.Millisecond, trace: trace, sz: scales["tiny"],
		out: t.TempDir(), clients: min(runtime.NumCPU(), maxClients), setups: 1}
}

// All four workloads, untraced and traced, at tiny scale: every listed
// metric is set, nothing is set under an unlisted name, no statement or
// check fails, and the trace is a forest of well-nested request trees.
func TestSmoke(t *testing.T) {
	listed := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		listed[d.name] = true
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, w, traced)
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.name, traced, res.Failed, res.Attempted, res.Notes)
			}
			for name, m := range res.Metrics {
				if !listed[name] {
					t.Errorf("%s: metric %s is in no table", w.name, name)
				}
				if m.Unit == "" {
					t.Errorf("%s: metric %s has no unit", w.name, name)
				}
			}
			for _, d := range endToEnd {
				if m := res.Metrics[d.name]; m.Value <= 0 || m.Unit != d.unit {
					t.Errorf("%s trace=%v: %s = %v %q, want a positive value in %s", w.name, traced, d.name, m.Value, m.Unit, d.unit)
				}
			}
			if !traced {
				continue
			}
			for _, d := range perLayer {
				if m, ok := res.Metrics[d.name]; ok && m.Unit != d.unit {
					t.Errorf("%s: %s has unit %q, want %q", w.name, d.name, m.Unit, d.unit)
				}
			}
			for _, name := range tracedMust[w.name] {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s = %v, want it measured", w.name, name, res.Metrics[name].Value)
				}
			}
			// A write's delta is visible only after the write is acknowledged
			// and the views have caught up with it: a catch-up longer than
			// the visibility it is part of has timed the tracer, not the views.
			if catchup, visible := res.Metrics["view.catchup_us"].Value, res.Metrics["client.feed_visible_p50_us"].Value; catchup > visible {
				t.Errorf("%s: view.catchup_us %v exceeds client.feed_visible_p50_us %v", w.name, catchup, visible)
			}
			checkTraceFile(t, filepath.Join(cfg.out, "trace_"+w.name+".json"))
		}
	}
}

// tracedMust names, per workload, the layer metrics that must come out
// positive: the layers the workload exists to exercise.
var tracedMust = map[string][]string{
	"point_read":    {"server.roundtrip_us", "server.self_us", "hql.parse_us", "core.evaluate_warm_us", "core.cache_hit_ratio", "client.read_p50_us"},
	"analytic_read": {"algebra.plan_us", "algebra.select_us", "algebra.join_us", "hql.exec_us", "hierarchy.subsumes_ns", "client.read_p99_us"},
	"durable_write": {"catalog.apply_us", "storage.applytx_us", "storage.fsyncs", "storage.wal_bytes", "storage.checkpoint_ms", "storage.replay_records_per_s", "client.write_p50_us", "client.p99_us", "client.reopen_s"},
	"mixed_tail": {"view.catchup_us", "view.rows_us", "view.recomputes", "subwire.deliver_us", "repl.applied_records", "client.feed_visible_p50_us",
		"client.replica_visible_p50_us", "client.read_p50_us", "client.write_p50_us"},
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s holds no spans", path)
	}
	byID := map[int]span{}
	roots := map[int]int{} // req → number of root spans
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup {
			t.Fatalf("%s: span id %d used twice", path, s.ID)
		}
		byID[s.ID] = s
		if s.Parent == 0 {
			roots[s.Req]++
		}
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("%s: span %d (%s) ends before it starts", path, s.ID, s.Name)
		}
		if s.Parent == 0 {
			if roots[s.Req] != 1 {
				t.Errorf("%s: request %d has %d root spans", path, s.Req, roots[s.Req])
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("%s: span %d (%s) has no parent %d", path, s.ID, s.Name, s.Parent)
			continue
		}
		if p.Req != s.Req || s.Start < p.Start || s.End > p.End {
			t.Errorf("%s: span %d (%s) [%d,%d] req %d is not inside its parent %s [%d,%d] req %d",
				path, s.ID, s.Name, s.Start, s.End, s.Req, p.Name, p.Start, p.End, p.Req)
		}
	}
}

// The checker must notice a wrong answer: a run that only ever passes
// proves nothing.
func TestCheckerFlagsCorruptedAnswer(t *testing.T) {
	cfg := tinyConfig(t, findWorkload("point_read"), false)
	fx, err := genFixture(cfg.seed, cfg.sz)
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := setup(cfg, fx)
	if err != nil {
		t.Fatal(err)
	}
	defer e.teardown()
	d := e.drive(100*time.Millisecond, nil)
	if len(d.answers) == 0 {
		t.Fatal("no answers kept")
	}
	res := &result{Metrics: map[string]metric{}, Samples: map[string]int{}}
	e.checkAnswers(res, d.answers)
	if res.Failed != 0 {
		t.Fatalf("true answers flagged: %v", res.Notes)
	}
	bad := d.answers[0]
	if bad.out == "true\n" {
		bad.out = "false\n"
	} else {
		bad.out = "true\n"
	}
	e.checkAnswers(res, []answer{bad})
	if res.Failed == 0 {
		t.Fatalf("corrupted answer %q to %s passed the check", bad.out, bad.text)
	}
}
