package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the p-quantile (0 < p <= 1) of sorted by the
// nearest-rank rule, and 0 for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// supported reports whether a sample of n has at least ten values beyond
// its p-quantile, the rule for which tail percentile may be reported.
func supported(n int, p float64) bool {
	return float64(n)*(1-p) >= 10
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// metricDef is one reported metric. bound is the share of the baseline by
// which an end-to-end metric may get worse before it counts as a
// regression; per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd is the list BENCHMARK.json repeats; TestBenchmarkJSON keeps the
// two in step.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"frame_ms_p50", "ms", "lower", 0.20},
	{"frame_ms_p95", "ms", "lower", 0.25},
	{"frames_per_s", "frames/s", "higher", 0.20},
	{"cpu_ms_per_frame", "ms", "lower", 0.20},
	{"alloc_kb_per_frame", "KB", "lower", 0.03},
	{"mem_sys_mb", "MB", "lower", 0.20},
	{"delivered_ratio", "ratio", "higher", 0.01},
	{"detect_recall", "ratio", "higher", 0.05},
}

// worseBy returns by what share of base the value cur is worse than base
// (negative when it is better).
func worseBy(m metricDef, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	d := (cur - base) / math.Abs(base)
	if m.better == "higher" {
		d = -d
	}
	return d
}

// checkBounds compares two sets of end-to-end values of one workload and
// lists every metric on which they disagree, in either direction, by more
// than the metric's own bound. Two runs of the same code must agree; this
// is the noise self-test.
func checkBounds(workload string, a, b map[string]float64) []string {
	var out []string
	for _, m := range endToEnd {
		va, okA := a[m.name]
		vb, okB := b[m.name]
		if !okA || !okB {
			out = append(out, fmt.Sprintf("%s %s: missing", workload, m.name))
			continue
		}
		if d := math.Max(worseBy(m, va, vb), worseBy(m, vb, va)); d > m.bound {
			out = append(out, fmt.Sprintf("%s %s: %.4g vs %.4g differ by %.1f%% > bound %.0f%%",
				workload, m.name, va, vb, 100*d, 100*m.bound))
		}
	}
	return out
}
