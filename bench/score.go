package main

import (
	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/vision/match"
)

// minIoU is the overlap at which a detection counts as finding an object.
const minIoU = 0.3

// truthBox is where one visible object really is, in frame coordinates.
type truthBox struct {
	object int
	box    match.BoundingBox
}

// groundTruth returns the boxes of the objects visible in clip frame i.
// A placement maps the object's reference image into the frame by scale
// then offset, so the box is the reference image's extent under that map.
func groundTruth(gen *trace.Generator, refs []trace.ReferenceImage, i int) []truthBox {
	var out []truthBox
	for _, p := range gen.GroundTruth(i) {
		if !p.Visible {
			continue
		}
		for _, r := range refs {
			if r.ObjectID != p.ObjectID {
				continue
			}
			out = append(out, truthBox{object: p.ObjectID, box: match.BoundingBox{
				MinX: p.OffX, MinY: p.OffY,
				MaxX: p.OffX + p.Scale*float64(r.Img.W),
				MaxY: p.OffY + p.Scale*float64(r.Img.H),
			}})
		}
	}
	return out
}

// recall counts visible ground-truth objects and how many were detected.
type recall struct {
	visible, detected int
}

// score adds one full-recognition result. Detections are in analysis
// coordinates and are scaled to the frame; a detection's reference view
// id maps to the scene object id modulo the object count (the identity on
// the default database, the shared-features rule on the padded one).
func (r *recall) score(dets []core.Detection, truth []truthBox, scale float64) {
	for _, t := range truth {
		r.visible++
		for _, d := range dets {
			if int(d.ObjectID)%trace.NumObjects != t.object {
				continue
			}
			box := match.BoundingBox{
				MinX: float64(d.MinX) * scale, MinY: float64(d.MinY) * scale,
				MaxX: float64(d.MaxX) * scale, MaxY: float64(d.MaxY) * scale,
			}
			if match.IoU(box, t.box) >= minIoU {
				r.detected++
				break
			}
		}
	}
}

func (r *recall) ratio() float64 {
	if r.visible == 0 {
		return 0
	}
	return float64(r.detected) / float64(r.visible)
}
