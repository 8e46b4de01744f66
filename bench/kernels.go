package main

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/transport"
	"github.com/edge-mar/scatter/internal/vision/imgproc"
	"github.com/edge-mar/scatter/internal/vision/match"
	"github.com/edge-mar/scatter/internal/vision/sift"
	"github.com/edge-mar/scatter/internal/wire"
)

// The kernel pass calls the layers' public functions directly, from one
// goroutine, on the workload's own frames. Its numbers explain the
// core.<stage>.proc_ms spans: sift.detect is core.sift, match.* is
// core.matching, lsh.* is core.lsh, resize and payload are core.primary,
// wire and transport are the hops.

const kernelFrames = 8 // clip frames sampled, spread over the clip

// kernelTimes collects per-call times (raw ms) and allocation per call.
type kernelTimes struct {
	ms    map[string][]float64
	alloc map[string]float64 // KB per call
}

// timed runs fn n times and records each call's time under name.
func (k *kernelTimes) timed(name string, n int, fn func()) {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn()
		k.ms[name] = append(k.ms[name], float64(time.Since(t0))/1e6)
	}
}

// allocKB returns the KB one call of fn allocates, averaged over n calls.
func allocKB(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(n)
}

// kernelPass returns the vision.*, core.payload.*, wire.* and
// transport.udp.* metrics, times normalised by the calibrations taken
// before and after the pass.
func kernelPass(fx *fixture, cal *calibrator) (map[string]float64, error) {
	k := &kernelTimes{ms: map[string][]float64{}, alloc: map[string]float64{}}
	calBefore := cal.measure()

	detCfg := sift.Defaults()
	detCfg.MaxFeatures = 150 // what core.NewProcessors gives the sift service
	det := sift.New(detCfg)
	ransac := match.RANSACConfig{Iterations: 400, Threshold: 5, MinInliers: 5, Seed: 1} // core.NewMatching's
	const ratio = 0.85
	model := fx.model
	var featureCount []float64

	for s := 0; s < kernelFrames; s++ {
		payload := fx.payloads[s*len(fx.payloads)/kernelFrames]

		var p *core.Payload
		var err error
		k.timed("core.payload.decode_ms", 1, func() { p, err = core.DecodePayload(payload) })
		if err != nil {
			return nil, err
		}
		img := imgproc.NewGray(p.Image.W, p.Image.H)
		for i, v := range p.Image.Pix {
			img.Pix[i] = float32(v) / 255
		}
		if img.W != analysisW || img.H != analysisH {
			full := img
			k.timed("vision.imgproc.resize_ms", 1, func() { img = imgproc.Resize(full, analysisW, analysisH) })
		}
		small := &core.Payload{Image: core.GrayToPayload(img)}
		k.timed("core.payload.encode_ms", 1, func() { small.Encode() })

		var feats []sift.Feature
		k.timed("vision.sift.detect_ms", 1, func() { feats = det.Detect(img) })
		k.alloc["vision.sift.detect_alloc_kb"] += allocKB(1, func() { det.Detect(img) }) / kernelFrames
		featureCount = append(featureCount, float64(len(feats)))

		reduced := make([][]float32, len(feats))
		k.timed("vision.pca.project_ms", 1, func() {
			for i := range feats {
				reduced[i] = model.PCA.Project(feats[i].Desc[:])
			}
		})
		var fv []float32
		k.timed("vision.fisher.encode_ms", 1, func() { fv = model.Encoder.Encode(reduced) })

		k.timed("vision.lsh.query_ms", 1, func() { model.Index.Query(fv, 3) })
		// One view in, the same view out: the index is unchanged after.
		spare := len(fx.views) // ids 0..len(views)-1 are taken
		k.timed("vision.lsh.add_us", 1, func() { model.Index.Add(spare, fv) })
		k.timed("vision.lsh.remove_us", 1, func() { model.Index.Remove(spare) })

		for _, obj := range model.Objects {
			var matches []match.Match
			k.timed("vision.match.ratio_ms", 1, func() { matches = match.RatioTest(feats, obj.Features, ratio) })
			if len(matches) < ransac.MinInliers {
				continue
			}
			src := make([]match.Point, len(matches))
			dst := make([]match.Point, len(matches))
			for i, m := range matches {
				src[i] = match.Point{X: obj.Features[m.TrainIdx].X, Y: obj.Features[m.TrainIdx].Y}
				dst[i] = match.Point{X: feats[m.QueryIdx].X, Y: feats[m.QueryIdx].Y}
			}
			// A degenerate fit is a result too; only the time is kept.
			k.timed("vision.match.ransac_ms", 1, func() { _, _ = match.EstimateHomographyRANSAC(src, dst, ransac) })
			k.alloc["vision.match.alloc_kb"] += allocKB(1, func() {
				match.RatioTest(feats, obj.Features, ratio)
				_, _ = match.EstimateHomographyRANSAC(src, dst, ransac)
			}) / float64(kernelFrames*len(model.Objects))
		}

		env := wire.Frame{ClientID: 1, FrameNo: 1, Payload: payload}
		buf := make([]byte, 0, env.EncodedSize())
		var into wire.Frame
		k.timed("wire.append_us", 4, func() { buf, err = env.AppendBinary(buf[:0]) })
		if err != nil {
			return nil, err
		}
		k.timed("wire.unmarshal_us", 4, func() { err = into.UnmarshalBinary(buf) })
		if err != nil {
			return nil, err
		}
	}

	rt, err := udpRoundTrips(len(fx.payloads[0]), 4*kernelFrames)
	if err != nil {
		return nil, err
	}
	k.ms["transport.udp.roundtrip_ms"] = rt

	speed := speedFactor(calBefore, cal.measure())
	out := map[string]float64{
		"vision.sift.features":        mean(featureCount),
		"vision.sift.detect_alloc_kb": k.alloc["vision.sift.detect_alloc_kb"],
		"vision.match.alloc_kb":       k.alloc["vision.match.alloc_kb"],
		"vision.imgproc.resize_ms":    0, // stays 0 when frames arrive at analysis size
	}
	for name, v := range k.ms {
		out[name] = median(v) / speed
	}
	for _, name := range []string{"vision.lsh.add_us", "vision.lsh.remove_us", "wire.append_us", "wire.unmarshal_us"} {
		out[name] *= 1000
	}
	return out, nil
}

// udpRoundTrips sends a message of size bytes from one bench-owned socket
// to another and the same bytes back, n times, and returns each
// round-trip time in ms.
func udpRoundTrips(size, n int) ([]float64, error) {
	back := make(chan struct{}, 1)
	a, err := transport.Listen("127.0.0.1:0", func([]byte, net.Addr) { back <- struct{}{} })
	if err != nil {
		return nil, err
	}
	defer a.Close()
	var echo atomic.Pointer[transport.Conn] // set before the first message is sent
	b, err := transport.Listen("127.0.0.1:0", func(data []byte, _ net.Addr) {
		_ = echo.Load().SendToAddr(a.LocalAddr(), data) // a lost echo shows as the timeout below
	})
	if err != nil {
		return nil, err
	}
	defer b.Close()
	echo.Store(b)
	msg := make([]byte, size)
	var out []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := a.SendToAddr(b.LocalAddr(), msg); err != nil {
			return nil, err
		}
		select {
		case <-back:
			out = append(out, float64(time.Since(t0))/1e6)
		case <-time.After(frameTimeout):
			return nil, fmt.Errorf("udp round trip %d of %d bytes timed out", i, size)
		}
	}
	return out, nil
}
