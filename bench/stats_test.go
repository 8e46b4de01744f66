package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	var v []float64
	for i := 1; i <= 200; i++ {
		v = append(v, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 100}, {0.95, 190}, {0.99, 198}, {1, 200}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one value = %v, want it", got)
	}
}

// A tail percentile may be reported only with ten samples beyond it.
func TestSupportedSampleCount(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{199, 0.95, false}, {200, 0.95, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{20, 0.5, true}, {19, 0.5, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestCheckBounds(t *testing.T) {
	base := map[string]float64{}
	for _, m := range endToEnd {
		base[m.name] = 100
	}
	vary := func(name string, v float64) map[string]float64 {
		out := map[string]float64{}
		for k, x := range base {
			out[k] = x
		}
		out[name] = v
		return out
	}
	if bad := checkBounds("w", base, base); len(bad) != 0 {
		t.Fatalf("identical sets disagree: %v", bad)
	}
	// frame_ms_p50 has a 20 % bound: 119 agrees, 121 does not, and the
	// order of the two sets does not matter.
	if bad := checkBounds("w", base, vary("frame_ms_p50", 119)); len(bad) != 0 {
		t.Errorf("19%% apart flagged: %v", bad)
	}
	for _, pair := range [][2]map[string]float64{
		{base, vary("frame_ms_p50", 121)}, {vary("frame_ms_p50", 121), base},
	} {
		bad := checkBounds("w", pair[0], pair[1])
		if len(bad) != 1 || !strings.Contains(bad[0], "frame_ms_p50") {
			t.Errorf("21%% apart: got %v, want one frame_ms_p50 line", bad)
		}
	}
	// A higher-is-better metric is worse when it falls.
	if d := worseBy(metricDef{better: "higher"}, 100, 80); d != 0.2 {
		t.Errorf("worseBy(higher, 100 -> 80) = %v, want 0.2", d)
	}
	if d := worseBy(metricDef{better: "lower"}, 100, 80); d != -0.2 {
		t.Errorf("worseBy(lower, 100 -> 80) = %v, want -0.2", d)
	}
	delete(base, "setup_s")
	if bad := checkBounds("w", base, base); len(bad) != 1 {
		t.Errorf("missing metric: got %v, want one line", bad)
	}
}

func TestClipIndexPlaysForwardsThenBackwards(t *testing.T) {
	var got []int
	for pos := 0; pos < 9; pos++ {
		got = append(got, clipIndex(pos, 4))
	}
	want := []int{0, 1, 2, 3, 2, 1, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("clipIndex over a 4-frame clip = %v, want %v", got, want)
		}
	}
	if clipIndex(5, 1) != 0 {
		t.Error("a one-frame clip has only frame 0")
	}
}

// BENCHMARK.json at the root repeats what this package defines; the
// driver reads the file, the program reads the tables.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, here %q", i, spec.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, here %+v", kind, i, g, m)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.bound) {
				t.Errorf("%s %s: bound differs", kind, m.name)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: a per-layer metric has no bound", kind, m.name)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd, true)
	compare("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
}
