package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/wire"
)

const (
	warmUp        = 3 * time.Second
	setUpRepeats  = 3  // set-ups per untraced run; setup_s is their median
	referenceRuns = 30 // results of solo-720p compared with the in-process pass
	minDelivered  = 0.99
	closureLimit  = 0.05 // unaccounted share of a frame the traced run tolerates
)

// stages are the five services, in pipeline order.
var stages = []wire.Step{wire.StepPrimary, wire.StepSIFT, wire.StepEncoding, wire.StepLSH, wire.StepMatching}

// perLayer lists every per-layer metric; BENCHMARK.json repeats it.
var perLayer = func() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{name: n, unit: unit, better: better})
		}
	}
	for _, s := range stages {
		add("ms", "lower", "core."+s.String()+".proc_ms")
	}
	for _, s := range stages {
		add("ms", "lower", "agent."+s.String()+".queue_ms")
	}
	for _, s := range stages {
		add("ms", "lower", "hop."+s.String()+"_ms")
	}
	add("ms", "lower", "hop.client_ms", "client.encode_ms", "agent.egress_ms", "transport.send_ms", "transport.ingress_send_ms")
	add("bytes", "lower", "wire.bytes_per_frame", "wire.ingress_bytes")
	add("ratio", "higher", "fastpath.skip_ratio")
	add("ms", "lower", "fastpath.skip_ms", "fastpath.full_ms")
	add("count", "lower", "agent.dropped_threshold", "agent.dropped_queue", "agent.errors",
		"agent.forward_retries", "transport.reassembly_dropped")
	add("ms", "lower", "trace.unaccounted_ms")
	add("ratio", "lower", "trace.overhead_ratio")
	add("ms", "lower", "machine.cal_ms_p50")
	add("ratio", "lower", "machine.cal_ms_spread")
	add("ms", "lower", "raw.frame_ms_p50")
	add("frames/s", "higher", "raw.frames_per_s")
	add("ms", "lower", "raw.cpu_ms_per_frame")
	add("ms", "lower", "vision.imgproc.resize_ms", "vision.sift.detect_ms")
	add("KB", "lower", "vision.sift.detect_alloc_kb")
	add("count", "higher", "vision.sift.features")
	add("ms", "lower", "vision.pca.project_ms", "vision.fisher.encode_ms", "vision.lsh.query_ms")
	add("us", "lower", "vision.lsh.add_us", "vision.lsh.remove_us")
	add("ms", "lower", "vision.match.ratio_ms", "vision.match.ransac_ms")
	add("KB", "lower", "vision.match.alloc_kb")
	add("ms", "lower", "core.payload.decode_ms", "core.payload.encode_ms")
	add("us", "lower", "wire.append_us", "wire.unmarshal_us")
	add("ms", "lower", "transport.udp.roundtrip_ms")
	return out
}()

// runResult is one run of one workload, traced or not.
type runResult struct {
	values    map[string]float64 // by metric name
	attempted int
	delivered int
	problems  []string // every failed check; empty means correct
	notes     []string // sample counts and the like, for the reader
}

func (r *runResult) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *runResult) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// countFrames takes the run's frame counts from the load and fails the
// run on an undecodable result or too many undelivered frames.
func (r *runResult) countFrames(l *load) {
	r.attempted, r.delivered = l.attempted, l.delivered
	if l.decodeErrors > 0 {
		r.fail("%d results did not decode", l.decodeErrors)
	}
	if ratio := float64(l.delivered) / float64(l.attempted); ratio < minDelivered {
		r.fail("delivered_ratio %.4f < %.2f", ratio, minDelivered)
	}
}

// stand is one prepared fixture with its running cluster and clients.
type stand struct {
	fx   *fixture
	c    *cluster
	mut  *mutator
	load *load
}

func (s *stand) Close() {
	if s.load != nil {
		s.load.Close()
	}
	s.mut.Close()
	if s.c != nil {
		s.c.Close()
	}
}

// setUp brings a workload to the point where the first frame can be sent.
// A nil fx is prepared from scratch; a traced run passes the fixture its
// untraced part already built.
func setUp(wl workload, seed int64, fx *fixture, tr *tracer) (*stand, error) {
	var err error
	if fx == nil {
		if fx, err = prepare(wl, seed); err != nil {
			return nil, err
		}
	}
	s := &stand{fx: fx}
	if s.c, err = startCluster(fx, tr); err != nil {
		return nil, err
	}
	s.mut = startMutator(fx)
	if s.load, err = newLoad(fx, s.c, s.mut, tr); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// measure streams for dur in segments with a calibration between each.
func measure(l *load, cal *calibrator, dur time.Duration) (*ledger, error) {
	led := &ledger{}
	prev := cal.measure()
	led.cal = append(led.cal, prev)
	end := time.Now().Add(dur)
	for now := time.Now(); now.Before(end); now = time.Now() {
		until := now.Add(l.fx.wl.segment)
		if until.After(end) {
			until = end
		}
		seg, err := l.stream(until)
		if err != nil {
			return nil, err
		}
		next := cal.measure()
		led.cal = append(led.cal, next)
		seg.speed = speedFactor(prev, next)
		led.add(seg)
		l.closeSegment(seg.speed)
		prev = next
	}
	return led, nil
}

// warm streams unrecorded. On a reference workload it also checks the
// first results against an in-process pass of the same frames through
// fresh processors.
func warm(s *stand, res *runResult) error {
	got := map[uint64][]core.Detection{}
	check := s.fx.wl.reference
	if check {
		s.load.onFull = func(frame uint64, dets []core.Detection) {
			if frame <= referenceRuns {
				got[frame] = dets
			}
		}
	}
	if _, err := s.load.stream(time.Now().Add(warmUp)); err != nil {
		return err
	}
	s.load.onFull = nil
	if s.load.decodeErrors > 0 {
		res.fail("%d results did not decode during warm-up", s.load.decodeErrors)
	}
	if check {
		want, err := referencePass(s.fx, referenceRuns)
		if err != nil {
			return err
		}
		for n := uint64(1); n <= referenceRuns; n++ {
			if !slices.Equal(got[n], want[n-1]) {
				res.fail("frame %d: workers returned %v, in-process pass %v", n, got[n], want[n-1])
				break
			}
		}
	}
	s.load.reset()
	return nil
}

// referencePass runs client 1's first n frames through core.NewProcessors
// in this goroutine, the result the workers must reproduce exactly.
func referencePass(fx *fixture, n int) ([][]core.Detection, error) {
	procs := core.NewProcessors(fx.model, true, analysisW, analysisH)
	out := make([][]core.Detection, n)
	for i := 0; i < n; i++ {
		fr := &wire.Frame{ClientID: 1, FrameNo: uint64(i + 1), Step: wire.StepPrimary,
			Payload: fx.payloads[clipIndex(fx.start+i, clipFrames)]}
		for _, p := range procs {
			if err := p.Process(fr); err != nil {
				return nil, fmt.Errorf("reference pass frame %d at %s: %w", i+1, p.Step(), err)
			}
		}
		p, err := core.DecodePayload(fr.Payload)
		if err != nil {
			return nil, fmt.Errorf("reference pass frame %d: %w", i+1, err)
		}
		out[i] = p.Detections
	}
	return out, nil
}

// runUntraced measures the end-to-end metrics.
func runUntraced(wl workload, seed int64, dur time.Duration) (*runResult, error) {
	res := &runResult{values: map[string]float64{}}
	cal := newCalibrator()

	// setup_s is the median of several whole set-ups, each normalised by
	// the calibrations around it and each started from a collected heap.
	// The first is the one measured; the others come after the measured
	// run, so its memory metrics are those of a process that set up once.
	var setups []float64
	timedSetUp := func() (*stand, error) {
		runtime.GC()
		before := cal.measure()
		t0 := time.Now()
		s, err := setUp(wl, seed, nil, nil)
		raw := time.Since(t0).Seconds()
		setups = append(setups, raw/speedFactor(before, cal.measure()))
		return s, err
	}
	s, err := timedSetUp()
	if err != nil {
		return nil, err
	}
	if err := warm(s, res); err != nil {
		s.Close()
		return nil, err
	}
	var m0, m1, held runtime.MemStats
	runtime.ReadMemStats(&m0)
	led, err := measure(s.load, cal, dur)
	runtime.ReadMemStats(&m1)
	// What the process holds from the OS with the garbage handed back.
	// Plain Sys is a high-water mark: on bigdb-100k it read 519 or 724 MB
	// depending on when a collection fell while the index arena grew.
	debug.FreeOSMemory()
	runtime.ReadMemStats(&held)
	s.Close()
	if err != nil {
		return nil, err
	}
	l := s.load
	res.countFrames(l)
	if l.delivered == 0 {
		return res, nil
	}
	lat := sortedCopy(led.normLat)
	n := float64(l.delivered)
	res.values["frame_ms_p50"] = percentile(lat, 0.50)
	res.values["frame_ms_p95"] = percentile(lat, 0.95)
	res.values["frames_per_s"] = n / (led.normMS / 1000)
	res.values["cpu_ms_per_frame"] = led.normCPUMS / n
	res.values["alloc_kb_per_frame"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n
	res.values["mem_sys_mb"] = float64(held.Sys-held.HeapReleased) / (1 << 20)
	res.values["delivered_ratio"] = n / float64(l.attempted)
	res.values["detect_recall"] = l.recall.ratio()

	res.note("frames: attempted %d, delivered %d, failed %d, decode errors %d, fast-path %d",
		l.attempted, l.delivered, l.attempted-l.delivered, l.decodeErrors, l.fastFrames)
	res.note("latency samples %d", len(lat))
	if supported(len(lat), 0.99) {
		res.note("frame_ms_p99 %.4f ms (not gated)", percentile(lat, 0.99))
	}
	res.note("recall: %d of %d visible objects", l.recall.detected, l.recall.visible)
	rawLat := sortedCopy(led.rawLat)
	res.note("raw twins: frame_ms_p50 %.4f ms, frames_per_s %.3f, cpu_ms_per_frame %.4f; machine speed %.3f over %d calibrations",
		percentile(rawLat, 0.5), n/(led.rawMS/1000), led.rawCPUMS/n, median(led.cal)/refMS, len(led.cal))

	if !supported(len(lat), 0.95) {
		res.fail("only %d latency samples: frame_ms_p95 needs 200", len(lat))
	}

	// The measured stand is dead from here on, so the collector can take its
	// fixture before the remaining set-ups build theirs.
	for len(setups) < setUpRepeats {
		again, err := timedSetUp()
		if err != nil {
			return nil, err
		}
		again.Close()
	}
	res.values["setup_s"] = median(setups)
	res.note("setup_s: median of %d set-ups %.3f", len(setups), setups)
	return res, nil
}

// runTraced measures the per-layer metrics: a short untraced stretch for
// the overhead ratio, the traced stretch, then the kernel pass.
func runTraced(wl workload, seed int64, dur time.Duration, outDir string) (*runResult, error) {
	res := &runResult{values: map[string]float64{}}
	cal := newCalibrator()

	plain, err := setUp(wl, seed, nil, nil)
	if err != nil {
		return nil, err
	}
	fx := plain.fx
	if err := warm(plain, res); err != nil {
		plain.Close()
		return nil, err
	}
	plainLed, err := measure(plain.load, cal, dur/3)
	plain.Close()
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	s, err := setUp(wl, seed, fx, tr)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := warm(s, res); err != nil {
		return nil, err
	}
	tr.on.Store(true)
	led, err := measure(s.load, cal, dur-dur/3)
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}

	l := s.load
	res.countFrames(l)
	if l.delivered == 0 {
		return res, nil
	}
	n := float64(l.delivered)
	v := res.values

	// Spans: built now, after the last frame, and written once.
	var all []span
	samples := layerSamples{}
	var bytesAll, bytesIn float64
	incomplete := 0
	tr.mu.Lock()
	for _, rec := range l.records {
		spans, ok := assemble(rec, tr.procs[rec.key], tr.sends[rec.key])
		if !ok {
			incomplete++
			continue
		}
		samples.addFrame(spans, rec.speed)
		all = append(all, spans...)
		for _, se := range tr.sends[rec.key] {
			bytesAll += float64(se.bytes)
			if se.from == fromClient {
				bytesIn += float64(se.bytes)
			}
		}
	}
	tr.mu.Unlock()
	traced := float64(len(l.records) - incomplete)
	if incomplete > 0 {
		res.fail("%d of %d delivered frames have an event missing", incomplete, len(l.records))
	}
	if traced == 0 {
		return res, nil
	}
	for _, st := range stages {
		name := st.String()
		v["core."+name+".proc_ms"] = samples.p50("core." + name + ".proc_ms")
		v["agent."+name+".queue_ms"] = samples.p50("agent." + name + ".queue_ms")
		v["hop."+name+"_ms"] = samples.p50("hop." + name + "_ms")
	}
	for _, name := range []string{"hop.client_ms", "client.encode_ms", "agent.egress_ms", "transport.send_ms",
		"transport.ingress_send_ms", "trace.unaccounted_ms"} {
		v[name] = samples.p50(name)
	}
	v["wire.bytes_per_frame"] = bytesAll / traced
	v["wire.ingress_bytes"] = bytesIn / traced
	v["fastpath.skip_ratio"] = float64(l.fastFrames) / n
	v["fastpath.skip_ms"] = median(led.normFast)
	v["fastpath.full_ms"] = median(led.normFull)

	for _, w := range s.c.workers {
		st := w.Stats()
		v["agent.dropped_threshold"] += float64(st.DroppedThreshold)
		v["agent.dropped_queue"] += float64(st.DroppedQueue)
		v["agent.errors"] += float64(st.Errors)
		v["agent.forward_retries"] += float64(st.ForwardRetries)
	}
	for _, conn := range s.c.conns {
		cs := conn.Stats()
		v["transport.reassembly_dropped"] += float64(cs.ReassemblyExpired + cs.ReassemblyOverCap + cs.FragmentsMalformed)
	}

	tracedP50 := median(led.normLat)
	plainP50 := median(plainLed.normLat)
	if plainP50 > 0 {
		v["trace.overhead_ratio"] = tracedP50 / plainP50
	}
	cals := sortedCopy(append(append([]float64(nil), plainLed.cal...), led.cal...))
	v["machine.cal_ms_p50"] = percentile(cals, 0.5)
	v["machine.cal_ms_spread"] = (percentile(cals, 0.75) - percentile(cals, 0.25)) / percentile(cals, 0.5)
	v["raw.frame_ms_p50"] = median(led.rawLat)
	v["raw.frames_per_s"] = n / (led.rawMS / 1000)
	v["raw.cpu_ms_per_frame"] = led.rawCPUMS / n

	// Closure: the layers' self times must add up to the frame.
	frameP50 := samples.p50("trace.frame_ms")
	if un := v["trace.unaccounted_ms"]; math.Abs(un) > closureLimit*frameP50 {
		res.fail("trace does not close: %+.4f ms of a %.4f ms frame unaccounted at p50", un, frameP50)
	}
	res.note("frames: attempted %d, delivered %d, traced %.0f, spans %d", l.attempted, l.delivered, traced, len(all))
	res.note("client.frame p50 %.4f ms traced vs %.4f ms untraced (%d samples)", tracedP50, plainP50, len(plainLed.normLat))

	kv, err := kernelPass(fx, cal)
	if err != nil {
		return nil, err
	}
	for name, val := range kv {
		v[name] = val
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "trace-"+wl.name+".json")
	if err := writeSpans(path, all); err != nil {
		return nil, err
	}
	res.note("spans written to %s", path)
	return res, nil
}
