package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// jsonDir is where machine-readable BENCH_<exp>.json files go; empty means
// no JSON output. Set by the -json flag in main.
var jsonDir string

// emitJSON writes one experiment's machine-readable result next to the
// printed table, so CI can archive benchmark history as artifacts without
// scraping markdown.
func emitJSON(exp string, v any) {
	if jsonDir == "" {
		return
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatalf("%s: marshal JSON: %v", exp, err)
	}
	path := filepath.Join(jsonDir, "BENCH_"+exp+".json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		log.Fatalf("%s: write %s: %v", exp, path, err)
	}
	log.Printf("%s: wrote %s", exp, path)
}

// machine records what a result was measured on.
type machine struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	Samples    int    `json:"samples"`
}

func thisMachine() machine {
	m := machine{GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown", Go: runtime.Version(), Samples: samples}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		for sc := bufio.NewScanner(f); sc.Scan(); {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// samples is how many timeIt measurements a dist summarizes.
const samples = 7

// dist is a timing distribution in ns per operation: the median of samples
// timeIt measurements, which the regression gate reads, and the
// interquartile range around it, which it does not.
type dist struct {
	MedianNs float64    `json:"median_ns"`
	IQR      [2]float64 `json:"iqr"`
}

// sampleNs measures f samples times.
func sampleNs(f func()) dist {
	ns := make([]float64, samples)
	for i := range ns {
		ns[i] = timeIt(f)
	}
	sort.Float64s(ns)
	return dist{MedianNs: ns[samples/2], IQR: [2]float64{ns[samples/4], ns[3*samples/4]}}
}

func (d dist) String() string {
	return fmt.Sprintf("%s [%s–%s]", fmtNs(d.MedianNs), fmtNs(d.IQR[0]), fmtNs(d.IQR[1]))
}
