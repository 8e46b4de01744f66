// Command bench is the repository's benchmark: it stands the five
// services up as real agent.Workers over loopback UDP in this process,
// drives them with its own closed-loop clients, and prints end-to-end and
// per-layer metrics in speed-normalised reference milliseconds. See
// README.md beside this file.
//
//	go run ./bench                      every workload, untraced then traced
//	go run ./bench -trace 0 -repeat 6 -check   the noise self-test
//	go run ./bench -workload solo-720p -trace 0 -seed 7 -seconds 20
//
// With -workload and -trace both given it makes exactly one run and ends
// its standard output with one JSON line, the form the driver calls.
// Otherwise it runs itself once per workload and trace mode, each in a
// process of its own so memory metrics start from the same place.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a single run prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workloadFlag := flag.String("workload", "", "run only this workload (default: all)")
	traceFlag := flag.String("trace", "", "0: end-to-end metrics, 1: per-layer metrics from a traced run (default: both)")
	seed := flag.Int64("seed", 7, "seed of every generated input")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	repeat := flag.Int("repeat", 1, "run the suite this many times, with seed, seed+1, ...")
	check := flag.Bool("check", false, "with -repeat 2 or more: fail if the medians of the first and second half of the repetitions differ by more than a metric's bound")
	out := flag.String("out", filepath.Join("bench", "out"), "directory for trace-<workload>.json and results.json")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	if *seconds < 1 {
		fatal("-seconds must be at least 1")
	}
	if *traceFlag != "" && *traceFlag != "0" && *traceFlag != "1" {
		fatal("-trace takes 0 or 1")
	}

	if *workloadFlag != "" && *traceFlag != "" && *repeat == 1 {
		wl, ok := findWorkload(*workloadFlag)
		if !ok {
			fatal("unknown workload %q", *workloadFlag)
		}
		os.Exit(single(wl, *seed, time.Duration(*seconds)*time.Second, *traceFlag == "1", *out))
	}
	os.Exit(suite(*workloadFlag, *traceFlag, *seed, *seconds, *repeat, *check, *out))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// single makes one run, prints its metrics and ends with the JSON line.
func single(wl workload, seed int64, dur time.Duration, traced bool, outDir string) int {
	var res *runResult
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		res, err = runTraced(wl, seed, dur, outDir)
	} else {
		res, err = runUntraced(wl, seed, dur)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
		return 1
	}
	mode := "end-to-end, tracing off"
	if traced {
		mode = "per-layer, traced"
	}
	fmt.Printf("== %s (%s) seed %d, %v measured\n", wl.name, mode, seed, dur)
	rep := report{
		Correct: len(res.problems) == 0, Attempted: res.attempted,
		Failed: res.attempted - res.delivered, Metrics: map[string]metricValue{},
	}
	for _, m := range defs {
		v := res.values[m.name] // a metric that does not apply to the workload reads 0
		rep.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Printf("  %-30s %14.4f %s\n", m.name, v, m.unit)
	}
	for _, n := range res.notes {
		fmt.Printf("  # %s\n", n)
	}
	for _, p := range res.problems {
		fmt.Printf("  FAILED: %s\n", p)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// suite runs single in a child process per workload and trace mode.
func suite(only, traceMode string, seed int64, seconds, repeat int, check bool, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	var names []string
	for _, wl := range workloads {
		if only == "" || only == wl.name {
			names = append(names, wl.name)
		}
	}
	if len(names) == 0 {
		fatal("unknown workload %q", only)
	}
	modes := []string{"0", "1"}
	if traceMode != "" {
		modes = []string{traceMode}
	}

	if check && (repeat < 2 || traceMode == "1") {
		fatal("-check needs -repeat 2 or more and end-to-end runs")
	}

	// runs[workload] holds the end-to-end values of every repetition.
	// Repetition r runs with seed+r, as the driver gives every run its own.
	runs := map[string][]map[string]float64{}
	all := map[string][]report{}
	status := 0
	for r := 0; r < repeat; r++ {
		for _, name := range names {
			for _, mode := range modes {
				rep, err := child(self, name, mode, seed+int64(r), seconds, outDir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s -trace %s: %v\n", name, mode, err)
					status = 1
					continue
				}
				if !rep.Correct {
					status = 1
				}
				key := name + "/trace=" + mode
				all[key] = append(all[key], *rep)
				if mode == "0" {
					vals := map[string]float64{}
					for k, v := range rep.Metrics {
						vals[k] = v.Value
					}
					runs[name] = append(runs[name], vals)
				}
			}
		}
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	} else if data, err := json.MarshalIndent(all, "", " "); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	} else if err := os.WriteFile(filepath.Join(outDir, "results.json"), data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	}

	if check {
		// The first half of the repetitions against the second, median
		// against median, as the driver compares two sets of runs.
		fmt.Printf("== check: %d sets of %d workloads x %d end-to-end metrics, first %d against the rest\n",
			repeat, len(names), len(endToEnd), repeat/2)
		var bad []string
		for _, name := range names {
			if len(runs[name]) != repeat {
				bad = append(bad, name+": a run is missing")
				continue
			}
			a, b := medians(runs[name][:repeat/2]), medians(runs[name][repeat/2:])
			for _, m := range endToEnd {
				fmt.Printf("  %-13s %-19s %11.4f %11.4f  %+6.1f%% worse (bound %.0f%%)\n",
					name, m.name, a[m.name], b[m.name], 100*worseBy(m, a[m.name], b[m.name]), 100*m.bound)
			}
			bad = append(bad, checkBounds(name, a, b)...)
		}
		for _, b := range bad {
			fmt.Println("  DISAGREE:", b)
		}
		if len(bad) > 0 {
			return 1
		}
		fmt.Println("  the two halves agree on every metric within its bound")
	}
	return status
}

// medians returns, per metric, the median over a set of runs.
func medians(runs []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range endToEnd {
		var v []float64
		for _, r := range runs {
			v = append(v, r[m.name])
		}
		out[m.name] = median(v)
	}
	return out
}

// child runs one single run of this binary, passing its output through,
// and parses the JSON line it ends with.
func child(self, name, mode string, seed int64, seconds int, outDir string) (*report, error) {
	cmd := exec.Command(self, "-workload", name, "-trace", mode,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-out", outDir)
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // Run waits for the child to end
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			last = s
		}
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &rep, nil
}
