package core

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/vision/match"
	"github.com/edge-mar/scatter/internal/vision/sift"
	"github.com/edge-mar/scatter/internal/wire"
)

// trainedModel builds a small model from the synthetic workplace scene.
func trainedModel(t testing.TB) (*Model, *trace.Generator) {
	t.Helper()
	gen := trace.NewGenerator(trace.Config{W: 320, H: 180, FPS: 10, Seconds: 1, Seed: 7})
	m, err := Train(gen.ReferenceImages(), TrainConfig{GMMK: 4, GMMIters: 8})
	if err != nil {
		t.Fatal(err)
	}
	return m, gen
}

func clientFrame(t testing.TB, gen *trace.Generator, clientID uint32, frameNo uint64, idx int) *wire.Frame {
	t.Helper()
	img := gen.GrayFrame(idx)
	p := &Payload{Image: GrayToPayload(img)}
	return &wire.Frame{
		ClientID: clientID,
		FrameNo:  frameNo,
		Step:     wire.StepPrimary,
		Payload:  p.Encode(),
	}
}

// copyClientFrame returns a copy of a clientFrame frame with its own
// payload: the processors rewrite a frame in place, so a benchmark hands
// every pass a fresh copy.
func copyClientFrame(fr *wire.Frame) *wire.Frame {
	c := *fr
	c.Payload = bytes.Clone(fr.Payload)
	return &c
}

// runPipeline pushes a frame through all five processors in order.
func runPipeline(t testing.TB, procs [wire.NumSteps]Processor, fr *wire.Frame) *Payload {
	t.Helper()
	for step := 0; step < wire.NumSteps; step++ {
		if err := procs[step].Process(fr); err != nil {
			t.Fatalf("step %s: %v", wire.Step(step), err)
		}
	}
	if fr.Step != wire.StepDone {
		t.Fatalf("final step = %v", fr.Step)
	}
	p, err := DecodePayload(fr.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestTrainBuildsModel(t *testing.T) {
	m, _ := trainedModel(t)
	if len(m.Objects) != trace.NumObjects {
		t.Fatalf("objects = %d", len(m.Objects))
	}
	if m.Index.Len() != trace.NumObjects {
		t.Errorf("index size = %d", m.Index.Len())
	}
	for _, obj := range m.Objects {
		if len(obj.Features) == 0 {
			t.Errorf("object %s has no features", obj.Name)
		}
	}
	if m.Encoder.Size() != 2*4*24 {
		t.Errorf("fisher size = %d", m.Encoder.Size())
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, TrainConfig{}); err == nil {
		t.Error("Train with no references succeeded")
	}
}

func TestEndToEndStatefulPipelineRecognizes(t *testing.T) {
	m, gen := trainedModel(t)
	procs := NewProcessors(m, false, 320, 180)
	found := make(map[int32]bool)
	for i := 0; i < 3; i++ {
		fr := clientFrame(t, gen, 1, uint64(i+1), i)
		p := runPipeline(t, procs, fr)
		for _, d := range p.Detections {
			found[d.ObjectID] = true
			if d.MaxX <= d.MinX || d.MaxY <= d.MinY {
				t.Errorf("degenerate box for object %d: %+v", d.ObjectID, d)
			}
		}
	}
	if len(found) == 0 {
		t.Fatal("stateful pipeline recognized nothing in the workplace scene")
	}
}

func TestEndToEndStatelessPipelineRecognizes(t *testing.T) {
	m, gen := trainedModel(t)
	procs := NewProcessors(m, true, 320, 180)
	fr := clientFrame(t, gen, 1, 1, 0)
	p := runPipeline(t, procs, fr)
	if len(p.Detections) == 0 {
		t.Fatal("stateless pipeline recognized nothing")
	}
	// Stateless sift retains nothing.
	if procs[wire.StepSIFT].(*SIFT).StateCount() != 0 {
		t.Error("stateless sift retained state")
	}
}

func TestDetectionsMatchGroundTruth(t *testing.T) {
	m, gen := trainedModel(t)
	procs := NewProcessors(m, true, 320, 180)
	fr := clientFrame(t, gen, 1, 1, 0)
	p := runPipeline(t, procs, fr)
	gt := gen.GroundTruth(0)
	for _, d := range p.Detections {
		truth := gt[d.ObjectID]
		if !truth.Visible {
			continue
		}
		// Ground-truth box center in frame coordinates.
		ref := m.Objects[0]
		for _, o := range m.Objects {
			if o.ID == d.ObjectID {
				ref = o
			}
		}
		cx := truth.OffX + truth.Scale*ref.W/2
		cy := truth.OffY + truth.Scale*ref.H/2
		dcx := float64(d.MinX+d.MaxX) / 2
		dcy := float64(d.MinY+d.MaxY) / 2
		if dx, dy := dcx-cx, dcy-cy; dx*dx+dy*dy > 40*40 {
			t.Errorf("object %d detected at (%.0f,%.0f), ground truth (%.0f,%.0f)",
				d.ObjectID, dcx, dcy, cx, cy)
		}
	}
}

func TestSIFTStatefulFetch(t *testing.T) {
	m, gen := trainedModel(t)
	procs := NewProcessors(m, false, 320, 180)
	s := procs[wire.StepSIFT].(*SIFT)
	fr := clientFrame(t, gen, 9, 42, 0)
	if err := procs[wire.StepPrimary].Process(fr); err != nil {
		t.Fatal(err)
	}
	if err := s.Process(fr); err != nil {
		t.Fatal(err)
	}
	if s.StateCount() != 1 {
		t.Fatalf("state count = %d", s.StateCount())
	}
	f, err := s.Fetch(9, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Descriptors) == 0 {
		t.Error("fetched state has no descriptors")
	}
	if s.StateCount() != 0 {
		t.Error("fetch did not remove state")
	}
	if _, err := s.Fetch(9, 42); !errors.Is(err, ErrStateMiss) {
		t.Errorf("double fetch err = %v", err)
	}
}

func TestSIFTStateExpiry(t *testing.T) {
	s := NewSIFT(50, false)
	now := time.Unix(0, 0)
	s.now = func() time.Time { return now }
	s.StateTimeout = time.Second
	gen := trace.NewGenerator(trace.Config{W: 160, H: 90, FPS: 10, Seconds: 1, Seed: 7})
	fr := clientFrame(t, gen, 1, 1, 0)
	pr := NewPrimary(160, 90)
	if err := pr.Process(fr); err != nil {
		t.Fatal(err)
	}
	if err := s.Process(fr); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Second)
	if _, err := s.Fetch(1, 1); !errors.Is(err, ErrStateMiss) {
		t.Errorf("expired state fetch err = %v", err)
	}
}

func TestProcessorsRejectWrongStep(t *testing.T) {
	m, gen := trainedModel(t)
	procs := NewProcessors(m, true, 320, 180)
	fr := clientFrame(t, gen, 1, 1, 0)
	// Feed a primary-step frame to sift.
	if err := procs[wire.StepSIFT].Process(fr); err == nil {
		t.Error("sift accepted a primary-step frame")
	}
}

func TestProcessorsRejectMissingSections(t *testing.T) {
	m, _ := trainedModel(t)
	procs := NewProcessors(m, true, 320, 180)
	empty := &Payload{}
	cases := []wire.Step{wire.StepPrimary, wire.StepSIFT, wire.StepEncoding, wire.StepLSH}
	for _, step := range cases {
		fr := &wire.Frame{Step: step, Payload: empty.Encode()}
		if err := procs[step].Process(fr); !errors.Is(err, ErrMissingSection) {
			t.Errorf("%s with empty payload err = %v", step, err)
		}
	}
}

func TestMatchingStatefulMissingFetcher(t *testing.T) {
	m, _ := trainedModel(t)
	matching := NewMatching(m.Objects, nil)
	fr := &wire.Frame{Step: wire.StepMatching, Payload: (&Payload{Candidates: []Candidate{}}).Encode()}
	if err := matching.Process(fr); !errors.Is(err, ErrMissingSection) {
		t.Errorf("err = %v", err)
	}
}

func TestOnePerPoint(t *testing.T) {
	train := make([]sift.Feature, 4)
	for i, xy := range [][2]float64{{1, 1}, {2, 2}, {1, 1}, {3, 3}} {
		train[i].X, train[i].Y = xy[0], xy[1]
	}
	matches := []match.Match{
		{QueryIdx: 0, TrainIdx: 1, Dist: 0.5},
		{QueryIdx: 1, TrainIdx: 0, Dist: 0.3},
		{QueryIdx: 2, TrainIdx: 1, Dist: 0.4}, // same TrainIdx as query 0, nearer
		{QueryIdx: 3, TrainIdx: 2, Dist: 0.2}, // TrainIdx 2 sits where 0 does, nearer than query 1
		{QueryIdx: 4, TrainIdx: 3, Dist: 0.6},
		{QueryIdx: 5, TrainIdx: 3, Dist: 0.6}, // Dist tie: query 4 wins
		{QueryIdx: 6, TrainIdx: 0, Dist: 0.2}, // ties query 3 on one location: query 3 wins
	}
	want := []match.Match{matches[2], matches[3], matches[4]}
	var sc matchScratch
	if got := sc.onePerPoint(slices.Clone(matches), train); !slices.Equal(got, want) {
		t.Errorf("onePerPoint = %v, want %v", got, want)
	}
	if got := sc.onePerPoint(nil, train); len(got) != 0 {
		t.Errorf("onePerPoint(nil) = %v", got)
	}

	// Against the plainest scan on random sets with many shared
	// locations and distances, query order ascending with gaps.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		train := make([]sift.Feature, 1+rng.Intn(12))
		for i := range train {
			train[i].X, train[i].Y = float64(rng.Intn(3)), float64(rng.Intn(3))
		}
		var in []match.Match
		for q := 0; q < rng.Intn(40); q++ {
			if rng.Intn(3) > 0 {
				in = append(in, match.Match{QueryIdx: q, TrainIdx: rng.Intn(len(train)), Dist: float64(rng.Intn(4))})
			}
		}
		var ref []match.Match
		for i, m := range in {
			p := train[m.TrainIdx]
			if !slices.ContainsFunc(in, func(o match.Match) bool {
				q := train[o.TrainIdx]
				return o != in[i] && p.X == q.X && p.Y == q.Y &&
					(o.Dist < m.Dist || o.Dist == m.Dist && o.QueryIdx < m.QueryIdx)
			}) {
				ref = append(ref, m)
			}
		}
		if got := sc.onePerPoint(slices.Clone(in), train); !slices.Equal(got, ref) {
			t.Fatalf("trial %d: onePerPoint(%v) = %v, want %v", trial, in, got, ref)
		}
	}

	if raceEnabled {
		return
	}
	buf := make([]match.Match, len(matches))
	if allocs := testing.AllocsPerRun(10, func() {
		copy(buf, matches)
		sc.onePerPoint(buf, train)
	}); allocs != 0 {
		t.Errorf("onePerPoint allocates %v times a call, want 0", allocs)
	}
}

func TestPrimaryResizes(t *testing.T) {
	pr := NewPrimary(64, 36)
	p := &Payload{Image: &ImagePayload{W: 128, H: 72, Pix: make([]uint8, 128*72)}}
	fr := &wire.Frame{Step: wire.StepPrimary, Payload: p.Encode()}
	if err := pr.Process(fr); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePayload(fr.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Image.W != 64 || got.Image.H != 36 {
		t.Errorf("resized to %dx%d", got.Image.W, got.Image.H)
	}
	if fr.Step != wire.StepSIFT {
		t.Errorf("step after primary = %v", fr.Step)
	}
}

func TestNewEncodingPanicsOnNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewEncoding(nil, nil) did not panic")
		}
	}()
	NewEncoding(nil, nil)
}

func BenchmarkFullPipelineStateless(b *testing.B) {
	m, gen := trainedModel(b)
	procs := NewProcessors(m, true, 320, 180)
	src := clientFrame(b, gen, 1, 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr := copyClientFrame(src)
		fr.FrameNo = uint64(i + 1)
		for step := 0; step < wire.NumSteps; step++ {
			if err := procs[step].Process(fr); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEncodingClip is the encoding service's work on clip frame 0
// (trace seed 7, 320x180) under the model a node trains (TrainConfig
// defaults: PCA to 24, 8 mixture components): every descriptor projected,
// then the Fisher vector — core.encoding.proc_ms without the payload
// decode and encode.
func BenchmarkEncodingClip(b *testing.B) {
	gen := trace.NewGenerator(trace.Config{W: 320, H: 180, FPS: 10, Seconds: 1, Seed: 7})
	m, err := Train(gen.ReferenceImages(), TrainConfig{})
	if err != nil {
		b.Fatal(err)
	}
	enc := NewEncoding(m.PCA, m.Encoder)
	f := NewSIFT(150, true).extract(gen.GrayFrame(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.encodeFeatures(f)
	}
}

// StateCount returns the number of retained frame states.
func (s *SIFT) StateCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.states)
}
