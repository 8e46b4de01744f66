package core

import (
	"bytes"
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/vision/match"
	"github.com/edge-mar/scatter/internal/wire"
)

// fpDet fabricates a well-supported detection for tracker-level tests.
func fpDet(id int) match.Detection {
	return match.Detection{
		ObjectID:   id,
		Pose:       match.Homography{1, 0, 0, 0, 1, 0, 0, 0, 1},
		Box:        match.BoundingBox{MinX: 10, MinY: 10, MaxX: 50, MaxY: 50},
		InlierFrac: 0.9,
	}
}

func TestPayloadFastPathRoundtrip(t *testing.T) {
	p := &Payload{
		FastPath:   true,
		Detections: []Detection{{ObjectID: 3, MinX: 1, MinY: 2, MaxX: 3, MaxY: 4}},
	}
	dec, err := DecodePayload(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !dec.FastPath {
		t.Error("FastPath flag lost in roundtrip")
	}
	if len(dec.Detections) != 1 || dec.Detections[0].ObjectID != 3 {
		t.Errorf("detections = %+v", dec.Detections)
	}
	dec, err = DecodePayload((&Payload{Detections: []Detection{}}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.FastPath {
		t.Error("FastPath flag set on a payload that never had it")
	}
}

func TestFastPathGateVerdictLifecycle(t *testing.T) {
	g := NewFastPathGate(FastPathConfig{Enabled: true, RefreshEvery: 3, MinConfidence: 0.5})
	if _, ok := g.VerdictAppend(1, 1, nil); ok {
		t.Fatal("gate skipped with no published verdict")
	}
	g.Publish(1, 1, 0.9, []Detection{{ObjectID: 4, MaxX: 5, MaxY: 5}})
	// A stale or replayed frame number never skips.
	if _, ok := g.VerdictAppend(1, 1, nil); ok {
		t.Fatal("gate skipped a frame at the published frame number")
	}
	out, ok := g.VerdictAppend(1, 2, nil)
	if !ok {
		t.Fatal("gate declined a fresh confident frame")
	}
	p, err := DecodePayload(out)
	if err != nil {
		t.Fatal(err)
	}
	if !p.FastPath || len(p.Detections) != 1 || p.Detections[0].ObjectID != 4 {
		t.Fatalf("fast-path payload = %+v", p)
	}
	if _, ok := g.VerdictAppend(1, 3, nil); !ok {
		t.Fatal("second skip within the refresh window declined")
	}
	// RefreshEvery=3 allows at most 2 consecutive skips.
	if _, ok := g.VerdictAppend(1, 4, nil); ok {
		t.Fatal("gate skipped past the RefreshEvery boundary")
	}
	// A low-confidence publish never skips.
	g.Publish(1, 4, 0.2, nil)
	if _, ok := g.VerdictAppend(1, 5, nil); ok {
		t.Fatal("gate skipped below MinConfidence")
	}
	if g.Skips() != 2 || g.Fulls() != 4 {
		t.Errorf("skips=%d fulls=%d, want 2/4", g.Skips(), g.Fulls())
	}
	g.EndSession(1)
	if g.ClientCount() != 0 {
		t.Errorf("clients after EndSession = %d", g.ClientCount())
	}
}

func TestFastPathGateSkipDecay(t *testing.T) {
	g := NewFastPathGate(FastPathConfig{Enabled: true, RefreshEvery: 100, MinConfidence: 0.5, SkipDecay: 0.5})
	g.Publish(7, 1, 0.9, nil)
	if _, ok := g.VerdictAppend(7, 2, nil); !ok {
		t.Fatal("first skip declined")
	}
	// 0.9 * 0.5 = 0.45 < MinConfidence: the decayed verdict expires long
	// before the refresh boundary.
	if _, ok := g.VerdictAppend(7, 3, nil); ok {
		t.Fatal("gate kept skipping after confidence decayed away")
	}
}

func TestFastPathGateEvictsIdleClients(t *testing.T) {
	g := NewFastPathGate(FastPathConfig{Enabled: true, IdleTimeout: time.Second})
	now := time.Unix(0, 0)
	g.now = func() time.Time { return now }
	g.Publish(1, 1, 0.9, nil)
	g.Publish(2, 1, 0.9, nil)
	if g.ClientCount() != 2 {
		t.Fatalf("clients = %d", g.ClientCount())
	}
	now = now.Add(2 * time.Second)
	g.VerdictAppend(3, 1, nil) // any traffic triggers the sweep
	if g.ClientCount() != 0 {
		t.Errorf("idle clients not evicted: %d live", g.ClientCount())
	}
}

func TestFastPathGateReusesPooledBuffer(t *testing.T) {
	g := NewFastPathGate(FastPathConfig{Enabled: true})
	g.Publish(1, 1, 0.9, []Detection{{ObjectID: 2, MaxX: 1, MaxY: 1}})
	buf := make([]byte, 0, 256)
	out, ok := g.VerdictAppend(1, 2, buf)
	if !ok {
		t.Fatal("gate declined")
	}
	if &out[0] != &buf[:1][0] {
		t.Error("verdict not appended into the caller's buffer")
	}
	// Mutating the caller's copy must not corrupt the published verdict.
	for i := range out {
		out[i] = 0xFF
	}
	out2, ok := g.VerdictAppend(1, 3, nil)
	if !ok {
		t.Fatal("second verdict declined")
	}
	if _, err := DecodePayload(out2); err != nil {
		t.Errorf("published verdict corrupted by caller mutation: %v", err)
	}
}

func TestRecognitionCacheTTL(t *testing.T) {
	c := NewRecognitionCache(RecognitionCacheConfig{TTL: time.Second, Capacity: 8}, nil)
	now := time.Unix(0, 0)
	c.now = func() time.Time { return now }
	c.Store("a", []Candidate{{ObjectID: 1, Dist: 0.5}})
	if got, ok := c.Lookup("a"); !ok || len(got) != 1 || got[0].ObjectID != 1 {
		t.Fatalf("fresh lookup = %v, %v", got, ok)
	}
	now = now.Add(2 * time.Second)
	if _, ok := c.Lookup("a"); ok {
		t.Fatal("expired entry served")
	}
	if c.Len() != 0 {
		t.Errorf("expired entry retained, len = %d", c.Len())
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", c.Hits(), c.Misses())
	}
}

func TestRecognitionCacheLRUEviction(t *testing.T) {
	c := NewRecognitionCache(RecognitionCacheConfig{TTL: time.Hour, Capacity: 2}, nil)
	c.Store("a", []Candidate{{ObjectID: 1}})
	c.Store("b", []Candidate{{ObjectID: 2}})
	if _, ok := c.Lookup("a"); !ok { // touch a: b is now least recent
		t.Fatal("a missing")
	}
	c.Store("c", []Candidate{{ObjectID: 3}})
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if _, ok := c.Lookup("b"); ok {
		t.Error("least-recently-used entry survived eviction")
	}
	for _, key := range []string{"a", "c"} {
		if _, ok := c.Lookup(key); !ok {
			t.Errorf("entry %q evicted out of LRU order", key)
		}
	}
}

func TestRecognitionCacheEmptyResultIsValid(t *testing.T) {
	c := NewRecognitionCache(RecognitionCacheConfig{}, nil)
	c.Store("none", []Candidate{})
	got, ok := c.Lookup("none")
	if !ok {
		t.Fatal("cached empty candidate list read as a miss")
	}
	if len(got) != 0 {
		t.Errorf("candidates = %v", got)
	}
}

func TestLSHServiceSharesCacheAcrossClients(t *testing.T) {
	m, gen := trainedModel(t)
	procs := NewProcessors(m, true, 320, 180)
	cache := NewRecognitionCache(RecognitionCacheConfig{}, m.Index)
	procs[wire.StepLSH].(*LSHService).Cache = cache

	toLSH := func(clientID uint32) *wire.Frame {
		fr := clientFrame(t, gen, clientID, 1, 0)
		for fr.Step != wire.StepLSH {
			if err := procs[fr.Step].Process(fr); err != nil {
				t.Fatal(err)
			}
		}
		return fr
	}
	fa, fb := toLSH(1), toLSH(2)
	if err := procs[wire.StepLSH].Process(fa); err != nil {
		t.Fatal(err)
	}
	if cache.Misses() != 1 || cache.Hits() != 0 || cache.Len() != 1 {
		t.Fatalf("after first query: hits=%d misses=%d len=%d", cache.Hits(), cache.Misses(), cache.Len())
	}
	if err := procs[wire.StepLSH].Process(fb); err != nil {
		t.Fatal(err)
	}
	if cache.Hits() != 1 {
		t.Fatalf("identical view from a second client missed the cache (hits=%d)", cache.Hits())
	}
	pa, err := DecodePayload(fa.Payload)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := DecodePayload(fb.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(pa.Candidates) == 0 || len(pa.Candidates) != len(pb.Candidates) {
		t.Fatalf("candidates: %d vs %d", len(pa.Candidates), len(pb.Candidates))
	}
	for i := range pa.Candidates {
		if pa.Candidates[i] != pb.Candidates[i] {
			t.Errorf("candidate %d differs: %+v vs %+v", i, pa.Candidates[i], pb.Candidates[i])
		}
	}
}

func TestMatchingMinHitsGatesDetections(t *testing.T) {
	mm := NewMatching(nil, nil)
	mm.SetMinHits(3)
	emit := func(frameNo uint64) int {
		fr := &wire.Frame{ClientID: 1, FrameNo: frameNo, Step: wire.StepMatching}
		mm.track(fr, []match.Detection{fpDet(5)})
		p, err := DecodePayload(fr.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Step != wire.StepDone {
			t.Fatalf("step = %v", fr.Step)
		}
		return len(p.Detections)
	}
	if n := emit(1); n != 0 {
		t.Errorf("frame 1 emitted %d detections before min hits", n)
	}
	if n := emit(2); n != 0 {
		t.Errorf("frame 2 emitted %d detections before min hits", n)
	}
	if n := emit(3); n != 1 {
		t.Errorf("frame 3 emitted %d detections, want 1", n)
	}

	// The default emits on the first hit (the historical behaviour).
	def := NewMatching(nil, nil)
	fr := &wire.Frame{ClientID: 1, FrameNo: 1, Step: wire.StepMatching}
	def.track(fr, []match.Detection{fpDet(5)})
	p, err := DecodePayload(fr.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Detections) != 1 {
		t.Errorf("default min hits emitted %d detections on first hit", len(p.Detections))
	}
}

func TestMatchingEvictsIdleTrackersUnderChurn(t *testing.T) {
	mm := NewMatching(nil, nil)
	mm.SetTrackerIdleTimeout(time.Second)
	now := time.Unix(0, 0)
	mm.now = func() time.Time { return now }
	for id := uint32(1); id <= 50; id++ {
		fr := &wire.Frame{ClientID: id, FrameNo: 1, Step: wire.StepMatching}
		mm.track(fr, nil)
	}
	if mm.TrackerCount() != 50 {
		t.Fatalf("trackers = %d, want 50", mm.TrackerCount())
	}
	now = now.Add(2 * time.Second)
	fr := &wire.Frame{ClientID: 99, FrameNo: 1, Step: wire.StepMatching}
	mm.track(fr, nil) // new traffic triggers the sweep
	if got := mm.TrackerCount(); got != 1 {
		t.Errorf("trackers after idle sweep = %d, want 1", got)
	}
}

func TestMatchingEndSessionClearsTrackerAndGate(t *testing.T) {
	mm := NewMatching(nil, nil)
	g := NewFastPathGate(FastPathConfig{Enabled: true})
	mm.SetFastPath(g)
	fr := &wire.Frame{ClientID: 7, FrameNo: 1, Step: wire.StepMatching}
	mm.track(fr, []match.Detection{fpDet(5)})
	if mm.TrackerCount() != 1 || g.ClientCount() != 1 {
		t.Fatalf("trackers=%d gate clients=%d", mm.TrackerCount(), g.ClientCount())
	}
	mm.EndSession(7)
	if mm.TrackerCount() != 0 || g.ClientCount() != 0 {
		t.Errorf("after EndSession: trackers=%d gate clients=%d", mm.TrackerCount(), g.ClientCount())
	}
}

// TestFastPathDisabledBitIdentical pins the regression contract: with the
// gate disabled (or absent) and min hits at the default, every frame's
// bytes are identical to a pipeline without any fast-path wiring.
func TestFastPathDisabledBitIdentical(t *testing.T) {
	m, gen := trainedModel(t)
	plain := NewProcessors(m, true, 320, 180)
	wired := NewProcessors(m, true, 320, 180)
	gate := NewFastPathGate(FastPathConfig{}) // Enabled = false
	wired[wire.StepPrimary].(*Primary).SetFastPath(gate)
	wm := wired[wire.StepMatching].(*Matching)
	wm.SetFastPath(gate)
	wm.SetMinHits(1)
	for i := 0; i < 4; i++ {
		fa := clientFrame(t, gen, 1, uint64(i+1), i)
		fb := clientFrame(t, gen, 1, uint64(i+1), i)
		for step := 0; step < wire.NumSteps; step++ {
			if err := plain[step].Process(fa); err != nil {
				t.Fatal(err)
			}
			if err := wired[step].Process(fb); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(fa.Payload, fb.Payload) {
			t.Fatalf("frame %d: disabled fast path is not bit-identical", i+1)
		}
	}
	if gate.Skips() != 0 || gate.ClientCount() != 0 {
		t.Errorf("disabled gate accrued state: skips=%d clients=%d", gate.Skips(), gate.ClientCount())
	}
}

// TestFastPathSteadyStateSkipRate drives the synthetic clip through the
// real pipeline with the gate enabled and measures the steady-state skip
// rate (the paper's temporal-coherence claim: consecutive AR frames are
// overwhelmingly redundant).
func TestFastPathSteadyStateSkipRate(t *testing.T) {
	m, gen := trainedModel(t)
	procs := NewProcessors(m, true, 320, 180)
	gate := NewFastPathGate(FastPathConfig{Enabled: true})
	procs[wire.StepPrimary].(*Primary).SetFastPath(gate)
	procs[wire.StepMatching].(*Matching).SetFastPath(gate)

	const warmup, measured = 10, 120
	skipped := 0
	for i := 0; i < warmup+measured; i++ {
		fr := clientFrame(t, gen, 1, uint64(i+1), i%gen.NumFrames())
		for fr.Step != wire.StepDone {
			if err := procs[fr.Step].Process(fr); err != nil {
				t.Fatal(err)
			}
		}
		p, err := DecodePayload(fr.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if p.FastPath {
			if i >= warmup {
				skipped++
			}
			if len(p.Detections) == 0 {
				t.Fatalf("frame %d: fast-path result carries no detections", i+1)
			}
		}
	}
	rate := float64(skipped) / measured
	if rate < 0.8 {
		t.Fatalf("steady-state skip rate = %.2f, want >= 0.80", rate)
	}
	t.Logf("steady-state skip rate %.3f (%d/%d), gate skips=%d fulls=%d",
		rate, skipped, measured, gate.Skips(), gate.Fulls())
}

// TestSimFastPathMirrorsGate checks the simulator mirror: an enabled
// fast path skips the overwhelming majority of steady-state frames and
// records them in the run summary.
func TestSimFastPathMirrorsGate(t *testing.T) {
	e := newEnv(5)
	p := NewPipeline(e.eng, e.fabric, e.col, PlaceAll(e.e1), DefaultProfiles(),
		Options{Mode: ModeScatter, FastPath: FastPathSimOptions{Enabled: true}})
	s := e.run(p, 1, 30*time.Second)
	if s.FastPathSkips == 0 {
		t.Fatal("enabled sim fast path skipped nothing")
	}
	// 30 s at 30 FPS with RefreshEvery=30 and WarmHits=3: nearly all
	// frames after warm-up come from the gate.
	if frac := float64(s.FastPathSkips) / float64(s.FramesOK); frac < 0.8 {
		t.Errorf("sim skip fraction = %.2f, want >= 0.80", frac)
	}
	if s.SuccessRate < 0.95 {
		t.Errorf("success rate with fast path = %.2f", s.SuccessRate)
	}
}

func TestSimFastPathDisabledUnchanged(t *testing.T) {
	run := func(opts Options) float64 {
		e := newEnv(11)
		p := NewPipeline(e.eng, e.fabric, e.col, PlaceAll(e.e1), DefaultProfiles(), opts)
		s := e.run(p, 1, 10*time.Second)
		if s.FastPathSkips != 0 {
			t.Fatalf("disabled sim fast path skipped %d frames", s.FastPathSkips)
		}
		return s.E2EMean.Seconds()
	}
	base := run(Options{Mode: ModeScatter})
	again := run(Options{Mode: ModeScatter})
	if base != again {
		t.Errorf("baseline not deterministic: %v vs %v", base, again)
	}
}

// BenchmarkFastPathFrame compares the per-frame cost of a full
// recognition pass against a tracker-gated skip (fastpath.full_ms and
// fastpath.skip_ms on the ledger).
func BenchmarkFastPathFrame(b *testing.B) {
	m, gen := trainedModel(b)

	b.Run("full", func(b *testing.B) {
		procs := NewProcessors(m, true, 320, 180)
		src := clientFrame(b, gen, 1, 1, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fr := src.Clone()
			fr.FrameNo = uint64(i + 1)
			for fr.Step != wire.StepDone {
				if err := procs[fr.Step].Process(fr); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	b.Run("tracked", func(b *testing.B) {
		procs := NewProcessors(m, true, 320, 180)
		// No refresh and no decay: every measured iteration is a pure
		// gate skip.
		gate := NewFastPathGate(FastPathConfig{
			Enabled: true, RefreshEvery: 1 << 30, SkipDecay: 1, MinConfidence: 0.01,
		})
		procs[wire.StepPrimary].(*Primary).SetFastPath(gate)
		procs[wire.StepMatching].(*Matching).SetFastPath(gate)
		// Warm the gate with full passes until it starts skipping.
		warm := clientFrame(b, gen, 1, 0, 0)
		for i := 0; i < 8; i++ {
			fr := warm.Clone()
			fr.FrameNo = uint64(i + 1)
			for fr.Step != wire.StepDone {
				if err := procs[fr.Step].Process(fr); err != nil {
					b.Fatal(err)
				}
			}
		}
		src := clientFrame(b, gen, 1, 1, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fr := src.Clone()
			fr.FrameNo = uint64(i + 100)
			for fr.Step != wire.StepDone {
				if err := procs[fr.Step].Process(fr); err != nil {
					b.Fatal(err)
				}
			}
			if !bytesHasFastPath(fr.Payload) {
				b.Fatal("tracked frame ran full recognition")
			}
		}
	})
}

// bytesHasFastPath decodes just enough to check the fast-path flag.
func bytesHasFastPath(payload []byte) bool {
	p, err := DecodePayload(payload)
	return err == nil && p.FastPath
}

// A full recognition pass — decode, resize, detect, encode, query, match,
// track, five payload hops — made 15 809 allocations before the matching
// solver moved onto the stack and the codec sized its buffers; what is
// left is the pyramid's images, the per-candidate feature lists and the
// worker pool's fan-out, which grows with GOMAXPROCS.
func TestFullPassAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	const budget = 1500
	m, gen := trainedModel(t)
	procs := NewProcessors(m, true, 320, 180)
	src := clientFrame(t, gen, 1, 1, 0)
	frameNo := uint64(0)
	allocs := testing.AllocsPerRun(5, func() {
		fr := src.Clone()
		frameNo++
		fr.FrameNo = frameNo
		runPipeline(t, procs, fr)
	})
	if allocs > budget {
		t.Errorf("full pass allocates %v times, budget %d", allocs, budget)
	}
}
