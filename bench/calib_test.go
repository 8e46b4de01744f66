package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

// The same work measured on a quiet second and on a slow one must
// normalise to the same numbers: a segment whose every time is stretched
// by its speed factor adds exactly what the unstretched one adds.
func TestLedgerNormalisesASlowSegment(t *testing.T) {
	quiet := segment{elapsedMS: 250, cpuMS: 400, speed: 1,
		latMS: []float64{30, 31, 29, 0.4}, fast: []bool{false, false, false, true}}
	slow := segment{speed: 2, fast: quiet.fast}
	slow.elapsedMS, slow.cpuMS = 2*quiet.elapsedMS, 2*quiet.cpuMS
	for _, v := range quiet.latMS {
		slow.latMS = append(slow.latMS, 2*v)
	}
	var a, b ledger
	a.add(quiet)
	a.add(quiet)
	b.add(quiet)
	b.add(slow)
	if !near(a.normMS, b.normMS) || !near(a.normCPUMS, b.normCPUMS) {
		t.Errorf("normalised time %v / CPU %v, want %v / %v", b.normMS, b.normCPUMS, a.normMS, a.normCPUMS)
	}
	for i := range a.normLat {
		if !near(a.normLat[i], b.normLat[i]) {
			t.Errorf("latency %d normalises to %v, want %v", i, b.normLat[i], a.normLat[i])
		}
	}
	if len(b.normFast) != 2 || len(b.normFull) != 6 || !near(b.normFast[1], 0.4) {
		t.Errorf("fast/full split: %v / %v", b.normFast, b.normFull)
	}
	// The raw twins keep the stretch.
	if !near(b.rawMS, 750) || !near(b.rawCPUMS, 1200) || !near(b.rawLat[4], 60) {
		t.Errorf("raw totals %v %v %v, want 750 1200 60", b.rawMS, b.rawCPUMS, b.rawLat[4])
	}
	// Throughput is delivered frames over summed normalised time.
	if fps := float64(len(b.normLat)) / (b.normMS / 1000); !near(fps, 16) {
		t.Errorf("frames/s = %v, want 8 frames in 0.5 reference seconds", fps)
	}
}

func TestSpeedFactor(t *testing.T) {
	if s := speedFactor(refMS, refMS); s != 1 {
		t.Errorf("the reference machine has speed factor %v, want 1", s)
	}
	// Frames follow the kernel less than one to one.
	s := speedFactor(1.5*refMS, 1.7*refMS)
	if want := math.Pow(1.6, sensitivity); !near(s, want) {
		t.Errorf("speedFactor = %v, want %v", s, want)
	}
	if s <= 1 || s >= 1.6 {
		t.Errorf("a kernel 1.6x slower must give a factor between 1 and 1.6, got %v", s)
	}
}

func TestCalibratorReadsEveryCore(t *testing.T) {
	c := newCalibrator()
	if len(c.cores) == 0 {
		t.Fatal("no cores to calibrate")
	}
	if ms := c.measure(); ms <= 0 || ms > 1000 {
		t.Errorf("calibration read %v ms", ms)
	}
}
