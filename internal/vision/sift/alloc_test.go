package sift

import (
	"runtime"
	"testing"
)

// Detect's per-frame garbage at the analysis resolution: one slab for the
// pyramid — six Gaussian levels of the first octave plus the blur's
// horizontal-pass buffer, 7·320·180 floats (1.6 MB), which every later
// octave reuses — and the features. DoG bands and gradient patches are
// pooled.
func TestDetectAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	const budget = 2 << 20
	frame := clipFrames(t)[0]
	cfg := Defaults()
	cfg.MaxFeatures = 150
	cfg.Workers = 1
	d := New(cfg)
	d.Detect(frame) // fill the pools
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		d.Detect(frame)
	}
	runtime.ReadMemStats(&after)
	if perFrame := (after.TotalAlloc - before.TotalAlloc) / runs; perFrame > budget {
		t.Errorf("Detect allocates %d B per 320x180 frame, budget %d", perFrame, budget)
	}
}
