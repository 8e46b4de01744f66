package fisher

// Exact-equality oracle for Encode and EM's E-step. refEncodeInto and
// refPosteriorsInto are the bodies the package shipped before the
// posterior loop read tabulated logarithms and the encoder tabulated its
// square roots, kept verbatim; the tests demand every output bit equal on
// the recorded clip's descriptors and on random models that reach the
// excluded-component and negligible-responsibility paths, at one and two
// workers, and every posterior equal at each EM iteration.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/vision/parallel"
	"github.com/edge-mar/scatter/internal/vision/pca"
	"github.com/edge-mar/scatter/internal/vision/sift"
)

// refPosteriorsInto computes p(c | x) for each component into out (length
// K), using the log-sum-exp trick for numerical stability.
func refPosteriorsInto(g *GMM, x []float32, out []float64) {
	maxLog := math.Inf(-1)
	for c := 0; c < g.K; c++ {
		w := g.Weights[c]
		if w <= 0 {
			out[c] = math.Inf(-1)
			continue
		}
		out[c] = math.Log(w) + g.logGaussian(x, c)
		if out[c] > maxLog {
			maxLog = out[c]
		}
	}
	if math.IsInf(maxLog, -1) {
		for c := range out {
			out[c] = 1 / float64(g.K)
		}
		return
	}
	var sum float64
	for c := 0; c < g.K; c++ {
		out[c] = math.Exp(out[c] - maxLog)
		sum += out[c]
	}
	for c := range out {
		out[c] /= sum
	}
}

// refEncodeInto runs the Fisher encoding of descs under g with the given
// worker count into the caller's zeroed float64 accumulator (length
// 2·K·Dim) and returns the normalized float32 vector.
func refEncodeInto(g *GMM, workers int, descs [][]float32, fv []float64) []float32 {
	if len(descs) == 0 {
		return make([]float32, len(fv))
	}
	for _, x := range descs {
		if len(x) != g.Dim {
			panic(fmt.Sprintf("fisher: descriptor dim %d, want %d", len(x), g.Dim))
		}
	}
	// Shard descriptors across the pool: each chunk accumulates gradients
	// into a pooled partial vector, merged in chunk order so the result is
	// bit-identical regardless of worker count.
	parts := make([][]float64, parallel.Chunks(len(descs), encodeGrain))
	parallel.For(workers, len(descs), encodeGrain, func(chunk, start, end int) {
		part := f64Pool.Get(len(fv))
		resp := f64Pool.Get(g.K)
		for i := start; i < end; i++ {
			x := descs[i]
			refPosteriorsInto(g, x, resp)
			for c := 0; c < g.K; c++ {
				r := resp[c]
				if r < 1e-12 {
					continue
				}
				mean, vars := g.Means[c], g.Vars[c]
				muOff := c * g.Dim
				sigOff := (g.K + c) * g.Dim
				for j, v := range x {
					sd := math.Sqrt(vars[j])
					u := (float64(v) - mean[j]) / sd
					part[muOff+j] += r * u
					part[sigOff+j] += r * (u*u - 1)
				}
			}
		}
		f64Pool.Put(resp)
		parts[chunk] = part
	})
	for _, part := range parts {
		for i, v := range part {
			fv[i] += v
		}
		f64Pool.Put(part)
	}
	// Fisher information normalization.
	nInv := 1 / float64(len(descs))
	for c := 0; c < g.K; c++ {
		w := g.Weights[c]
		if w <= 0 {
			continue
		}
		muScale := nInv / math.Sqrt(w)
		sigScale := nInv / math.Sqrt(2*w)
		muOff := c * g.Dim
		sigOff := (g.K + c) * g.Dim
		for j := 0; j < g.Dim; j++ {
			fv[muOff+j] *= muScale
			fv[sigOff+j] *= sigScale
		}
	}
	// Power normalization: sign(z) * sqrt(|z|).
	for i, v := range fv {
		fv[i] = math.Copysign(math.Sqrt(math.Abs(v)), v)
	}
	// L2 normalization.
	var norm float64
	for _, v := range fv {
		norm += v * v
	}
	out := make([]float32, len(fv))
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i, v := range fv {
			out[i] = float32(v / norm)
		}
	}
	return out
}

// sameEncoding encodes descs at one and two workers and compares every
// bit with the reference: each descriptor's posteriors, the float64
// vector before its float32 rounding (which would hide a last-bit
// difference) and the returned vector.
func sameEncoding(t *testing.T, what string, g *GMM, descs [][]float32) {
	t.Helper()
	e := NewEncoder(g)
	got, want := make([]float64, g.K), make([]float64, g.K)
	for n, x := range descs {
		g.posteriorsInto(e.logs, x, got)
		refPosteriorsInto(g, x, want)
		for c := range want {
			if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
				t.Fatalf("%s: descriptor %d posterior %d = %v, reference %v", what, n, c, got[c], want[c])
			}
		}
	}
	for _, workers := range []int{1, 2} {
		e.Workers = workers
		gotFV, wantFV := make([]float64, e.Size()), make([]float64, e.Size())
		got := e.encodeInto(descs, gotFV)
		want := refEncodeInto(g, workers, descs, wantFV)
		if len(got) != len(want) {
			t.Fatalf("%s workers %d: length %d, reference %d", what, workers, len(got), len(want))
		}
		for i := range want {
			if math.Float64bits(gotFV[i]) != math.Float64bits(wantFV[i]) || math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("%s workers %d: fv[%d] = %v (%v), reference %v (%v)", what, workers, i, got[i], gotFV[i], want[i], wantFV[i])
			}
		}
	}
}

// sameEStep compares, at every EM iteration of training data into k
// components, the posteriors the E-step computes for each sample with the
// reference. Training for it iterations leaves the model the E-step of
// iteration it+1 reads, so checking it = 0..iters-1 covers every E-step of
// a run of iters.
func sameEStep(t *testing.T, what string, data [][]float32, k, iters int, seed int64) {
	t.Helper()
	got, want := make([]float64, k), make([]float64, k)
	for it := 0; it < iters; it++ {
		g, err := trainGMM(data, k, it, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		logs := newLogTables(g)
		logs.fill(g)
		for n, x := range data {
			g.posteriorsInto(logs, x, got)
			refPosteriorsInto(g, x, want)
			for c := range want {
				if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
					t.Fatalf("%s: iteration %d sample %d posterior %d = %v, reference %v", what, it, n, c, got[c], want[c])
				}
			}
		}
	}
}

// TestEStepMatchesReference covers EM's E-step on random data with more
// components than clusters. The excluded-component and negligible-
// responsibility states are covered through sameEncoding's posterior
// check.
func TestEStepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, dim := range []int{1, 3, 7, 24} {
		for _, k := range []int{1, 2, 5, 8} {
			data := twoClusters(rng, 90, dim)
			sameEStep(t, fmt.Sprintf("dim %d k %d", dim, k), data, k, 8, int64(dim*10+k))
		}
	}
}

// TestEncodeMatchesReferenceOnClip trains the model the way core.Train
// does (PCA to 24 over the reference images' descriptors at the
// service's 150-feature cap, then 8 components, 15 EM iterations, seed 1)
// and encodes the projected descriptors of the clip the ledger plays
// (trace seed 7, 320x180), frame by frame.
func TestEncodeMatchesReferenceOnClip(t *testing.T) {
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
	proj, err := pca.Fit(refs, 24)
	if err != nil {
		t.Fatal(err)
	}
	train := proj.ProjectAll(refs)
	if !testing.Short() {
		sameEStep(t, "clip", train, 8, 15, 1)
	}
	g, err := TrainGMM(train, 8, 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	frames := []int{0, 9, 17, 33}
	if testing.Short() {
		frames = frames[:1]
	}
	for _, fi := range frames {
		var descs [][]float32
		for _, f := range det.Detect(gen.GrayFrame(fi)) {
			descs = append(descs, proj.Project(f.Desc[:]))
		}
		if len(descs) == 0 {
			t.Fatalf("frame %d yields no descriptors", fi)
		}
		sameEncoding(t, fmt.Sprintf("frame %d", fi), g, descs)
	}
}

func TestEncodeMatchesReferenceOnRandomModels(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, dim := range []int{1, 3, 5, 7, 24} {
		for _, k := range []int{1, 2, 3, 5, 8} {
			data := twoClusters(rng, 120, dim)
			g, err := TrainGMM(data, k, 6, int64(dim*10+k))
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("dim %d k %d", dim, k)
			for _, n := range []int{0, 1, 31, 32, 33, 70} {
				sameEncoding(t, fmt.Sprintf("%s n %d", what, n), g, data[:n])
			}
			if k < 2 {
				continue
			}
			// A component with weight <= 0 is excluded from the posteriors
			// and the normalization.
			for _, w := range []float64{0, -0.25} {
				h := cloneGMM(g)
				h.Weights[k-1] = w
				sameEncoding(t, fmt.Sprintf("%s weight %v", what, w), h, data[:40])
			}
			// A component parked far from the data takes a responsibility
			// under 1e-12 from every descriptor, so its gradients are
			// skipped.
			h := cloneGMM(g)
			for j := range h.Means[0] {
				h.Means[0][j] = 1e3
			}
			resp := h.Posteriors(data[0])
			if !(resp[0] < 1e-12) {
				t.Fatalf("%s: the parked component's responsibility is %v, not under 1e-12", what, resp[0])
			}
			sameEncoding(t, what+" parked component", h, data[:40])
		}
	}
}

func cloneGMM(g *GMM) *GMM {
	h := &GMM{K: g.K, Dim: g.Dim, Weights: append([]float64(nil), g.Weights...)}
	for c := 0; c < g.K; c++ {
		h.Means = append(h.Means, append([]float64(nil), g.Means[c]...))
		h.Vars = append(h.Vars, append([]float64(nil), g.Vars[c]...))
	}
	return h
}
