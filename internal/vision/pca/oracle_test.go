package pca

// Exact-equality oracle for ProjectInto. refProjectInto is the body the
// package shipped before the four-components-per-pass loop, kept
// verbatim; the tests demand every output bit equal on the recorded
// clip's descriptors and on random models whose K and Dim are not
// multiples of four, so the one-component tail runs too. ProjectInto
// emits float32, so the oracle sees what a caller sees: a last-bit
// difference in a float64 sum would almost always round away, and the
// exactness of the sums themselves rests on each keeping its order.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/vision/sift"
)

// refProjectInto is ProjectInto with one pass over centered per
// component.
func refProjectInto(p *Projection, dst, v []float32) {
	if len(v) != p.Dim {
		panic(fmt.Sprintf("pca: project dim %d, want %d", len(v), p.Dim))
	}
	// The centered copy stays on the stack at descriptor size.
	var stack [128]float64
	centered := stack[:]
	if p.Dim > len(stack) {
		centered = make([]float64, p.Dim)
	}
	centered = centered[:p.Dim]
	for i, x := range v {
		centered[i] = float64(x) - p.Mean[i]
	}
	for c, comp := range p.Components {
		var dot float64
		for i, x := range centered {
			dot += x * comp[i]
		}
		dst[c] = float32(dot)
	}
}

// sameProjection projects every vector both ways and compares the bits.
func sameProjection(t *testing.T, what string, p *Projection, data [][]float32) {
	t.Helper()
	got := make([]float32, p.K)
	want := make([]float32, p.K)
	for n, v := range data {
		p.ProjectInto(got, v)
		refProjectInto(p, want, v)
		for c := range want {
			if math.Float32bits(got[c]) != math.Float32bits(want[c]) {
				t.Fatalf("%s: vector %d component %d = %v, reference %v", what, n, c, got[c], want[c])
			}
		}
	}
}

// clipDescriptors fits the projection the way core.Train does (the
// reference images' descriptors at the service's 150-feature cap, 24
// components) and returns it with the descriptors of the clip the
// ledger plays (trace seed 7, 320x180).
func clipDescriptors(t testing.TB) (*Projection, [][]float32) {
	t.Helper()
	gen := trace.NewGenerator(trace.Config{W: 320, H: 180, Seed: 7})
	cfg := sift.Defaults()
	cfg.MaxFeatures = 150
	det := sift.New(cfg)
	var refs [][]float32
	for _, ref := range gen.ReferenceImages() {
		for _, f := range det.Detect(ref.Img) {
			refs = append(refs, f.Desc[:])
		}
	}
	p, err := Fit(refs, 24)
	if err != nil {
		t.Fatal(err)
	}
	frames := []int{0, 9, 17, 33}
	if testing.Short() {
		frames = frames[:1]
	}
	var descs [][]float32
	for _, fi := range frames {
		for _, f := range det.Detect(gen.GrayFrame(fi)) {
			descs = append(descs, f.Desc[:])
		}
	}
	return p, descs
}

func TestProjectMatchesReferenceOnClip(t *testing.T) {
	p, descs := clipDescriptors(t)
	if len(descs) == 0 {
		t.Fatal("the clip yields no descriptors")
	}
	sameProjection(t, "clip", p, descs)
}

func TestProjectMatchesReferenceOnRandomModels(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, dim := range []int{1, 3, 4, 5, 7, 9, 128, 131} {
		data := gaussianCloud(rng, 40, dim)
		full, err := Fit(data, min(dim, 24))
		if err != nil {
			t.Fatal(err)
		}
		// Exact zeros and negative zeros among the inputs.
		data[0][0], data[1][dim-1] = 0, float32(math.Copysign(0, -1))
		for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 24} {
			if k > full.K {
				continue
			}
			// The leading k components of a fit are a fit keeping k.
			p := &Projection{Dim: dim, K: k, Mean: full.Mean, Components: full.Components[:k]}
			sameProjection(t, fmt.Sprintf("dim %d k %d", dim, k), p, data)
		}
	}
}
