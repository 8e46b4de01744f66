package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/transport"
	"github.com/edge-mar/scatter/internal/wire"
)

// Tracing is done from outside the program: a decorator around each
// core.Processor times Process, a wrapper around every endpoint times
// SendToAddr, and the queue wait comes from the StageRecords a result
// already carries. Events are kept in memory while frames flow and are
// turned into spans, and written out, only after the run.

// fromClient marks a send made by the client, not by a stage's worker.
const fromClient = -1

type frameKey struct {
	client uint32
	frame  uint64
}

type procEvent struct {
	step       wire.Step
	start, end time.Duration // since the tracer's epoch
}

type sendEvent struct {
	from       int // sending stage, or fromClient
	bytes      int
	start, end time.Duration
}

// tracer collects events from the decorators. Nothing is recorded until
// on is set, so warm-up leaves no events behind.
type tracer struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	procs map[frameKey][]procEvent
	sends map[frameKey][]sendEvent
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		procs: make(map[frameKey][]procEvent),
		sends: make(map[frameKey][]sendEvent),
	}
}

func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.epoch) }

func (t *tracer) proc(key frameKey, step wire.Step, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	ev := procEvent{step: step, start: t.since(start), end: t.since(end)}
	t.mu.Lock()
	t.procs[key] = append(t.procs[key], ev)
	t.mu.Unlock()
}

func (t *tracer) send(key frameKey, from, bytes int, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	ev := sendEvent{from: from, bytes: bytes, start: t.since(start), end: t.since(end)}
	t.mu.Lock()
	t.sends[key] = append(t.sends[key], ev)
	t.mu.Unlock()
}

// timedProcessor times every Process call of the processor it wraps.
type timedProcessor struct {
	core.Processor
	tr *tracer
}

func (p *timedProcessor) Process(fr *wire.Frame) error {
	key := frameKey{fr.ClientID, fr.FrameNo}
	start := time.Now()
	err := p.Processor.Process(fr)
	p.tr.proc(key, p.Step(), start, time.Now())
	return err
}

// timedBatchProcessor keeps the wrapped processor's BatchHandler visible,
// so a worker picks the same dispatch path traced and untraced.
type timedBatchProcessor struct {
	timedProcessor
	batch core.BatchHandler
}

func (p *timedBatchProcessor) ProcessBatch(frs []*wire.Frame) []error {
	keys := make([]frameKey, len(frs))
	for i, fr := range frs {
		keys[i] = frameKey{fr.ClientID, fr.FrameNo}
	}
	start := time.Now()
	errs := p.batch.ProcessBatch(frs)
	end := time.Now()
	for _, k := range keys {
		p.tr.proc(k, p.Step(), start, end)
	}
	return errs
}

func traceProcessor(p core.Processor, tr *tracer) core.Processor {
	tp := timedProcessor{Processor: p, tr: tr}
	if bh, ok := p.(core.BatchHandler); ok {
		return &timedBatchProcessor{timedProcessor: tp, batch: bh}
	}
	return &tp
}

// timedEndpoint times every frame sent through the endpoint it wraps and
// reads the frame's identity and size off the encoded envelope.
type timedEndpoint struct {
	transport.Endpoint
	tr   *tracer
	from int

	mu      sync.Mutex
	scratch wire.Frame // header decode target, reused under mu
}

func (e *timedEndpoint) SendToAddr(addr string, data []byte) error {
	start := time.Now()
	err := e.Endpoint.SendToAddr(addr, data)
	end := time.Now()
	if err != nil || wire.IsAck(data) || !e.tr.on.Load() {
		return err
	}
	e.mu.Lock()
	derr := e.scratch.UnmarshalBinaryNoCopy(data)
	key := frameKey{e.scratch.ClientID, e.scratch.FrameNo}
	e.scratch.Payload = nil // drop the alias into the caller's buffer
	e.mu.Unlock()
	if derr == nil {
		e.tr.send(key, e.from, len(data), start, end)
	}
	return nil
}

// Span kinds. A frame's spans tile its life from client send to result:
// encode (the client builds the envelope), then per stage hop (sender's
// send begins -> receiver has the frame decoded), queue, proc and egress
// (Process returns -> worker's send begins), with each send call a child
// of the hop it starts.
const (
	kindFrame = iota
	kindEncode
	kindHop
	kindQueue
	kindProc
	kindEgress
	kindSend
)

type span struct {
	Client  uint32  `json:"client"`
	Frame   uint64  `json:"frame"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`

	kind       int
	stage      int // stage the span belongs to, or fromClient
	start, end time.Duration
}

func (s *span) dur() time.Duration { return s.end - s.start }

// frameRecord is what the client knows about one delivered frame.
type frameRecord struct {
	key        frameKey
	sent, done time.Duration
	stages     []wire.StageRecord
	speed      float64 // speed factor of the segment it ran in
}

func stageName(stage int) string {
	if stage == fromClient {
		return "client"
	}
	return wire.Step(stage).String()
}

// assemble turns one delivered frame's events into its span tree. ok is
// false when an event is missing, which the caller counts.
func assemble(rec frameRecord, procs []procEvent, sends []sendEvent) (out []span, ok bool) {
	mk := func(kind, stage int, name, parent string, start, end time.Duration) {
		if end < start {
			end = start
		}
		out = append(out, span{
			Client: rec.key.client, Frame: rec.key.frame, Name: name, Parent: parent,
			StartUS: float64(start) / 1e3, EndUS: float64(end) / 1e3,
			kind: kind, stage: stage, start: start, end: end,
		})
	}
	sendFrom := func(from int) (sendEvent, bool) {
		for _, s := range sends {
			if s.from == from {
				return s, true
			}
		}
		return sendEvent{}, false
	}
	const root = "client.frame"
	mk(kindFrame, fromClient, root, "", rec.sent, rec.done)
	prev, found := sendFrom(fromClient)
	if !found {
		return nil, false
	}
	mk(kindEncode, fromClient, "client.encode", root, rec.sent, prev.start)
	for _, st := range rec.stages {
		var pe *procEvent
		for i := range procs {
			if procs[i].step == st.Step {
				pe = &procs[i]
			}
		}
		if pe == nil {
			return nil, false
		}
		stage, name := int(st.Step), st.Step.String()
		enq := pe.start - time.Duration(st.QueueMicros)*time.Microsecond
		hop := "hop." + name
		mk(kindHop, stage, hop, root, prev.start, enq)
		mk(kindSend, prev.from, "transport."+stageName(prev.from)+".send", hop, prev.start, prev.end)
		mk(kindQueue, stage, "agent."+name+".queue", root, enq, pe.start)
		mk(kindProc, stage, "core."+name+".proc", root, pe.start, pe.end)
		next, found := sendFrom(stage)
		if !found {
			return nil, false
		}
		mk(kindEgress, stage, "agent."+name+".egress", root, pe.end, next.start)
		prev = next
	}
	mk(kindHop, fromClient, "hop.client", root, prev.start, rec.done)
	mk(kindSend, prev.from, "transport."+stageName(prev.from)+".send", "hop.client", prev.start, prev.end)
	return out, true
}

// selfTimes returns, for each span of one frame, its duration minus the
// part of its interval that its child spans cover. Children may overlap
// each other and may stick out of the parent; only covered time inside
// the parent is taken off, once.
func selfTimes(spans []span) []time.Duration {
	out := make([]time.Duration, len(spans))
	type iv struct{ lo, hi time.Duration }
	for i := range spans {
		p := &spans[i]
		var kids []iv
		for j := range spans {
			c := &spans[j]
			if j == i || c.Parent != p.Name {
				continue
			}
			lo, hi := max(c.start, p.start), min(c.end, p.end)
			if hi > lo {
				kids = append(kids, iv{lo, hi})
			}
		}
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
		var covered, edge time.Duration
		edge = p.start
		for _, k := range kids {
			if k.hi <= edge {
				continue
			}
			covered += k.hi - max(k.lo, edge)
			edge = k.hi
		}
		out[i] = p.dur() - covered
	}
	return out
}

// layerSamples holds per-frame values, in reference milliseconds, under
// the per-layer metric each belongs to.
type layerSamples map[string][]float64

// addFrame files one frame's spans under their metrics. The frame's
// unaccounted time is its span minus the self times of all the others:
// positive where no layer claims an interval, negative where two claim the
// same one (a queue wait longer than the hop left room for, or a send call
// that returned after the receiver had the frame).
func (ls layerSamples) addFrame(spans []span, speed float64) {
	self := selfTimes(spans)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 / speed }
	var egress, send, unaccounted time.Duration
	for i := range spans {
		s := &spans[i]
		name := stageName(s.stage)
		if s.kind == kindFrame {
			unaccounted += s.dur()
		} else {
			unaccounted -= self[i]
		}
		switch s.kind {
		case kindFrame:
			ls.add("trace.frame_ms", ms(s.dur()))
		case kindEncode:
			ls.add("client.encode_ms", ms(s.dur()))
		case kindHop:
			ls.add("hop."+name+"_ms", ms(s.dur()))
		case kindQueue:
			ls.add("agent."+name+".queue_ms", ms(s.dur()))
		case kindProc:
			ls.add("core."+name+".proc_ms", ms(s.dur()))
		case kindEgress:
			egress += s.dur()
		case kindSend:
			send += s.dur()
			if s.stage == fromClient {
				ls.add("transport.ingress_send_ms", ms(s.dur()))
			}
		}
	}
	ls.add("agent.egress_ms", ms(egress))
	ls.add("transport.send_ms", ms(send))
	ls.add("trace.unaccounted_ms", ms(unaccounted))
}

func (ls layerSamples) add(name string, v float64) { ls[name] = append(ls[name], v) }

func (ls layerSamples) p50(name string) float64 { return median(ls[name]) }

// writeSpans writes every span of the run as one JSON array.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
