package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// manifest is the part of BENCHMARK.json the comparison needs.
type manifest struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, per workload and end-to-end metric, both files'
// values, by how much B is worse than A, and the metric's bound, and reports
// whether every pairing stayed within its bound. Run on two sets of the same
// commit it is the repeatability check: the summary line per metric gives
// the largest difference between the two sets and says whether the metric
// holds the 0.10 the issue asked for. One that does not moves to the
// per-layer list under "client.".
func compareFiles(w io.Writer, manifestPath, pathA, pathB string) (bool, error) {
	var m manifest
	var a, b resultFile
	for path, v := range map[string]any{manifestPath: &m, pathA: &a, pathB: &b} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	if a.Stamp.CPU != b.Stamp.CPU || a.Stamp.GOMAXPROCS != b.Stamp.GOMAXPROCS || a.Stamp.FS != b.Stamp.FS {
		fmt.Fprintf(w, "WARNING: different machines: %q/%d/%s vs %q/%d/%s\n",
			a.Stamp.CPU, a.Stamp.GOMAXPROCS, a.Stamp.FS, b.Stamp.CPU, b.Stamp.GOMAXPROCS, b.Stamp.FS)
	}
	ok := true
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %9s %6s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	for _, e := range m.EndToEnd {
		worst := 0.0
		for _, wl := range m.Workloads {
			wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
			if wa == nil || wb == nil {
				return false, fmt.Errorf("workload %s missing from a result file", wl.Name)
			}
			va, vb := wa.EndToEnd[e.Name].Value, wb.EndToEnd[e.Name].Value
			if va == 0 {
				return false, fmt.Errorf("%s %s is 0 in %s", wl.Name, e.Name, pathA)
			}
			worse := (vb - va) / va
			if e.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > e.Bound {
				verdict, ok = "EXCEEDS", false
			}
			worst = math.Max(worst, math.Abs(worse))
			fmt.Fprintf(w, "%-14s %-14s %14.6g %14.6g %+8.1f%% %6.2f  %s\n", wl.Name, e.Name, va, vb, 100*worse, e.Bound, verdict)
		}
		rule := "holds 0.10"
		if worst > 0.10 {
			rule = "does not hold 0.10: demote to client." + e.Name
		}
		fmt.Fprintf(w, "%-14s %-14s largest difference %.1f%%: %s\n", "*", e.Name, 100*worst, rule)
	}
	return ok, nil
}
