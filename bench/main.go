// Command bench is hrdb's request-path benchmark: seeded fixtures, four
// closed-loop workloads over wire protocol v2 against an in-process server
// on a durable store, client-seen metrics, and a traced run that attributes
// time to layers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Where the benchmark writes and where its bounds are, relative to the
// repository root it is run from.
const (
	outDir       = "bench/out"
	manifestPath = "BENCHMARK.json"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with one JSON line (the benchmark driver's form); empty runs the full set")
		seed    = flag.Int64("seed", 1, "seed for the fixture and every statement stream")
		seconds = flag.Float64("seconds", 15, "length of one measured window")
		trace   = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
		scale   = flag.String("scale", "full", "fixture and stream sizes: full or tiny")
		compare = flag.Bool("compare", false, "compare two result files given as arguments against the bounds in BENCHMARK.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			die("usage: bench -compare A.json B.json")
		}
		ok, err := compareFiles(os.Stdout, manifestPath, flag.Arg(0), flag.Arg(1))
		if err != nil {
			die("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	sz, ok := scales[*scale]
	if !ok {
		die("unknown scale %q", *scale)
	}
	// The load shape is not a setting: more clients than cores and the load
	// generator would compete with the server it measures, and two results
	// taken at different counts do not compare.
	clients := min(runtime.NumCPU(), maxClients)
	runtime.GOMAXPROCS(clients)
	cfg := &config{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), sz: sz,
		out: outDir, clients: clients, setups: 3}
	st, err := newStamp(cfg, *scale)
	if err != nil {
		die("%v", err)
	}
	if st.FsyncFree {
		fmt.Fprintf(os.Stderr, "bench: WARNING: %s is on %s: fsync is nearly free there, so durable_write measures CPU only\n", cfg.out, st.FS)
	}

	if *name != "" {
		cfg.w, cfg.trace = findWorkload(*name), *trace == 1
		if cfg.w == nil {
			die("unknown workload %q", *name)
		}
		res, err := run(cfg)
		if err != nil {
			die("%s: %v", *name, err)
		}
		defs := endToEnd
		if cfg.trace {
			defs = perLayer
		}
		stamped, err := json.Marshal(st)
		if err != nil {
			die("%v", err)
		}
		fmt.Printf("%s stamp %s\n", res.Workload, stamped)
		printResult(res, defs)
		line, err := json.Marshal(map[string]any{
			"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed,
			"metrics": pick(defs, res.Metrics),
		})
		if err != nil {
			die("%v", err)
		}
		fmt.Println(string(line))
		if res.Failed > 0 {
			os.Exit(1)
		}
		return
	}
	if err := fullSet(cfg, st); err != nil {
		die("%v", err)
	}
}

func die(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// printResult prints every listed metric as "workload metric value unit",
// with the sample counts that stand behind the timings.
func printResult(res *result, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("%s %s %.6g %s\n", res.Workload, d.name, res.Metrics[d.name].Value, d.unit)
	}
	keys := make([]string, 0, len(res.Samples))
	for k := range res.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s samples.%s %d count\n", res.Workload, k, res.Samples[k])
	}
	fmt.Printf("%s failed_share %.6g ratio (%d of %d)\n", res.Workload,
		ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	for _, n := range res.Notes {
		fmt.Printf("%s FAILED %s\n", res.Workload, n)
	}
}

// setResult is one workload's half of a result file.
type setResult struct {
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
	Samples   map[string]int    `json:"samples"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
}

// resultFile is what the full set writes. It claims nothing: it is the
// baseline later changes are judged against.
type resultFile struct {
	Stamp     stamp                 `json:"stamp"`
	Workloads map[string]*setResult `json:"workloads"`
	Claim     *string               `json:"claim"`
}

// fullSet runs every workload untraced, then traced, prints all metrics and
// writes the result file.
func fullSet(cfg *config, st stamp) error {
	file := resultFile{Stamp: st, Workloads: map[string]*setResult{}}
	failed := 0
	for _, w := range workloads {
		sr := &setResult{}
		file.Workloads[w.name] = sr
		for _, traced := range []bool{false, true} {
			c := *cfg
			c.w, c.trace = w, traced
			res, err := run(&c)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if traced {
				printResult(res, perLayer)
				sr.PerLayer = pick(perLayer, res.Metrics)
			} else {
				printResult(res, endToEnd)
				sr.EndToEnd, sr.Samples = pick(endToEnd, res.Metrics), res.Samples
			}
			sr.Attempted += res.Attempted
			sr.Failed += res.Failed
			failed += res.Failed
		}
	}
	// What the views, the feed and the replica cost a write: the same
	// statements' latency with them (mixed_tail) minus without
	// (durable_write).
	tax := file.Workloads["mixed_tail"].PerLayer["client.write_p50_us"].Value -
		file.Workloads["durable_write"].PerLayer["client.write_p50_us"].Value
	file.Workloads["mixed_tail"].PerLayer["write_tax.view_repl_us"] = metric{Value: tax, Unit: "us"}
	fmt.Printf("mixed_tail write_tax.view_repl_us %.6g us\n", tax)

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("result_seed%d.json", cfg.seed))
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	if failed > 0 {
		return fmt.Errorf("%d statements or checks failed", failed)
	}
	return nil
}
