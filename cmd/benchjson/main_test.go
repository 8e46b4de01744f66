package main

import "testing"

func TestParseLineStandardUnits(t *testing.T) {
	r, ok := parseLine("BenchmarkWorkerHop/udp/180KiB-8  842  1384671 ns/op  133.10 MB/s  742011 B/op  31 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if r.Name != "BenchmarkWorkerHop/udp/180KiB-8" || r.Iters != 842 {
		t.Fatalf("name/iters = %q/%d", r.Name, r.Iters)
	}
	if r.NsPerOp != 1384671 || r.MBPerSec != 133.10 || r.BytesPerOp != 742011 || r.AllocsPerOp != 31 {
		t.Fatalf("standard units misparsed: %+v", r)
	}
	if len(r.Metrics) != 0 {
		t.Fatalf("unexpected custom metrics: %v", r.Metrics)
	}
}

// TestParseLineRecallMetric pins the custom-unit capture: a benchmark
// that reports a metric of its own via b.ReportMetric (as
// BenchmarkKernelPreRank does with recall@10) keeps it in the JSON.
func TestParseLineRecallMetric(t *testing.T) {
	r, ok := parseLine("BenchmarkKernelPreRank/n=100000/pr=4-8  1296  917955 ns/op  0.994 recall@10  565 B/op  12 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if got := r.Metrics["recall@10"]; got != 0.994 {
		t.Fatalf("recall@10 = %v, want 0.994", got)
	}
	if r.NsPerOp != 917955 || r.AllocsPerOp != 12 {
		t.Fatalf("standard units misparsed alongside custom metric: %+v", r)
	}
}

func TestParseLineRejectsNonBench(t *testing.T) {
	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  \tgithub.com/edge-mar/scatter/internal/vision/lsh\t1.5s",
		"BenchmarkBroken  notanumber  12 ns/op",
		"",
	} {
		if _, ok := parseLine(line); ok {
			t.Fatalf("line %q parsed as benchmark", line)
		}
	}
}
