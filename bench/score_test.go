package main

import (
	"testing"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/vision/match"
)

func TestRecallScore(t *testing.T) {
	// Ground truth in a 1280-wide frame; detections arrive in 320-wide
	// analysis coordinates, so they are scaled by 4.
	truth := []truthBox{
		{object: trace.ObjectMonitor, box: match.BoundingBox{MinX: 400, MinY: 100, MaxX: 800, MaxY: 400}},
		{object: trace.ObjectMug, box: match.BoundingBox{MinX: 900, MinY: 400, MaxX: 1000, MaxY: 500}},
	}
	det := func(id int32, x0, y0, x1, y1 float32) core.Detection {
		return core.Detection{ObjectID: id, MinX: x0, MinY: y0, MaxX: x1, MaxY: y1}
	}
	cases := []struct {
		name string
		dets []core.Detection
		want int
	}{
		{"exact box", []core.Detection{det(trace.ObjectMonitor, 100, 25, 200, 100)}, 1},
		{"half the box, IoU 0.5", []core.Detection{det(trace.ObjectMonitor, 100, 25, 150, 100)}, 1},
		{"a quarter of the box, IoU 0.25", []core.Detection{det(trace.ObjectMonitor, 100, 25, 125, 100)}, 0},
		{"right place, wrong object", []core.Detection{det(trace.ObjectKeyboard, 100, 25, 200, 100)}, 0},
		{"padded view 3003 is the monitor", []core.Detection{det(3003, 100, 25, 200, 100)}, 1},
		{"both objects", []core.Detection{det(trace.ObjectMonitor, 100, 25, 200, 100), det(trace.ObjectMug, 225, 100, 250, 125)}, 2},
		{"two detections of one object count once", []core.Detection{det(0, 100, 25, 200, 100), det(3, 100, 25, 200, 100)}, 1},
		{"nothing detected", nil, 0},
	}
	for _, c := range cases {
		var r recall
		r.score(c.dets, truth, 4)
		if r.visible != 2 || r.detected != c.want {
			t.Errorf("%s: detected %d of %d, want %d of 2", c.name, r.detected, r.visible, c.want)
		}
	}
	var r recall
	if r.ratio() != 0 {
		t.Error("recall over no objects must be 0, not NaN")
	}
	r.score(cases[0].dets, truth, 4)
	r.score(cases[5].dets, truth, 4)
	if r.ratio() != 0.75 {
		t.Errorf("recall = %v, want 3 of 4", r.ratio())
	}
}

func TestGroundTruthBoxes(t *testing.T) {
	gen := trace.NewGenerator(trace.Config{W: 1280, H: 720, Seed: 7})
	refs := gen.ReferenceImages()
	boxes := groundTruth(gen, refs, 0)
	if len(boxes) != trace.NumObjects {
		t.Fatalf("%d visible objects in frame 0, want %d", len(boxes), trace.NumObjects)
	}
	for _, b := range boxes {
		w, h := b.box.MaxX-b.box.MinX, b.box.MaxY-b.box.MinY
		if w <= 0 || h <= 0 || w > 1280 || h > 720 {
			t.Errorf("object %d: box %+v is not a box inside a 1280x720 frame", b.object, b.box)
		}
	}
}
