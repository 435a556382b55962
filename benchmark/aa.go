package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// childResult is the last line a child process prints.
type childResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// benchmarkJSON is the part of BENCHMARK.json the A/A comparison reads: the
// bounds live there and nowhere else.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runAll runs every workload in its own child process and prints each one's
// metrics by name. With aa it does so twice and compares; the exit code is
// non-zero when a run was incorrect or a bounded metric moved past its bound.
func runAll(o options, aa bool) int {
	start := time.Now()
	sets := 1
	if aa {
		sets = 2
	}
	results := make([]map[string]*childResult, sets)
	code := 0
	for s := range results {
		results[s] = make(map[string]*childResult)
		for _, w := range workloads {
			cr, err := runChild(o, w.name)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			if !cr.Correct {
				code = 1
			}
			results[s][w.name] = cr
		}
	}
	if aa && !compareSets(results[0], results[1], o.trace) {
		code = 1
	}
	fmt.Printf("wall time %.1fs\n", time.Since(start).Seconds())
	return code
}

func runChild(o options, workload string) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", trace)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	last := lines[len(lines)-1]
	os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
	fmt.Println()
	var cr childResult
	if err := json.Unmarshal(last, &cr); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	return &cr, nil
}

// compareSets prints, per workload and metric, both values, their relative
// difference and the bound, and reports whether every bounded metric agreed.
func compareSets(a, b map[string]*childResult, trace bool) bool {
	var names []string
	bounds := map[string]float64{}
	if trace { // per-layer metrics have no bounds; the table is for reading
		for _, m := range perLayer {
			names = append(names, m.name)
		}
	} else {
		var bj benchmarkJSON
		raw, err := os.ReadFile(filepath.Join(benchDir(), "..", "BENCHMARK.json"))
		if err == nil {
			err = json.Unmarshal(raw, &bj)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: -aa needs BENCHMARK.json for the bounds:", err)
			return false
		}
		for _, m := range bj.EndToEnd {
			bounds[m.Name] = m.Bound
			names = append(names, m.Name)
		}
	}
	ok := true
	fmt.Println("A/A: two sets of runs of the same binary")
	fmt.Printf("  %-10s %-36s %14s %14s %8s %8s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads {
		ma, mb := a[w.name].Metrics, b[w.name].Metrics
		for _, n := range names {
			va, vb := ma[n].Value, mb[n].Value
			d := relDiff(va, vb)
			line := fmt.Sprintf("  %-10s %-36s %14.4f %14.4f %7.1f%%", w.name, n, va, vb, 100*d)
			if bound, gated := bounds[n]; gated {
				line += fmt.Sprintf(" %7.1f%%", 100*bound)
				if d > bound {
					line += "  OVER"
					ok = false
				}
			}
			fmt.Println(line)
		}
	}
	return ok
}
