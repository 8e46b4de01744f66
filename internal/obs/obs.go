// Package obs is the observability layer shared by the simulated and the
// real scAtteR runtime: per-frame span tracing (where a frame spent its
// latency budget, stage by stage), a live lock-free metrics registry
// (counters, gauges, fixed-bucket latency histograms with percentile
// extraction), HTTP exposition of both, and a Chrome trace_event exporter
// so a frame's journey across primary→sift→encoding→lsh→matching renders
// in Perfetto.
//
// The paper's characterization correlates QoS with per-service queueing
// and hardware utilization; its §6 proposal needs those signals *live*,
// not as a run-end digest. metrics.Collector stays the single-threaded
// run-end accumulator; obs.Registry is its concurrent, always-on
// counterpart, and obs.Span is the per-frame record that generalizes the
// scAtteR++ sidecar analytics to both modes and all five stages.
package obs

import (
	"sync"
	"time"

	"github.com/edge-mar/scatter/internal/wire"
)

// Outcome classifies how a span ended.
type Outcome uint8

// Span outcomes. The drop outcomes mirror metrics.DropReason so spans and
// run-end counters tell one story.
const (
	OutcomeOK        Outcome = iota // processed and forwarded/delivered
	OutcomeBusy                     // dropped at a busy service (scAtteR)
	OutcomeOverflow                 // sidecar queue full (scAtteR++)
	OutcomeThreshold                // sidecar latency threshold exceeded
	OutcomeTimeout                  // dependency wait timed out
	OutcomeError                    // processing error (real runtime)
	OutcomeShutdown                 // abandoned in-queue at worker shutdown
	OutcomeTransport                // lost below the worker (reassembly drop)
	OutcomeAdmission                // refused by admission control at ingress
)

// String names the outcome for exposition and trace args.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeBusy:
		return "drop-busy"
	case OutcomeOverflow:
		return "drop-overflow"
	case OutcomeThreshold:
		return "drop-threshold"
	case OutcomeTimeout:
		return "drop-timeout"
	case OutcomeError:
		return "error"
	case OutcomeShutdown:
		return "drop-shutdown"
	case OutcomeTransport:
		return "drop-transport"
	case OutcomeAdmission:
		return "drop-admission"
	default:
		return "unknown"
	}
}

// Span is one service's handling of one frame: when the frame reached
// the service ingress (EnqueueAt), when processing began (StartAt) and
// ended (EndAt), the derived queue-wait and processing segments, and how
// it ended. Timestamps are offsets from the run origin — virtual time in
// the simulator, wall-clock-since-start in the real runtime — so spans
// from either path feed the same exporters.
type Span struct {
	Service   string        `json:"service"`
	Host      string        `json:"host"`
	Step      wire.Step     `json:"step"`
	ClientID  uint32        `json:"client"`
	FrameNo   uint64        `json:"frame"`
	EnqueueAt time.Duration `json:"enqueue_ns"`
	StartAt   time.Duration `json:"start_ns"`
	EndAt     time.Duration `json:"end_ns"`
	Queue     time.Duration `json:"queue_ns"`
	Proc      time.Duration `json:"proc_ns"`
	Outcome   Outcome       `json:"outcome"`
}

// DefaultMaxSpans bounds a Recorder's memory: at 30 FPS × 5 stages a
// client produces 150 spans/s, so the default holds several minutes of a
// small deployment.
const DefaultMaxSpans = 1 << 20

// Recorder collects spans. It is safe for concurrent use; a nil Recorder
// is a valid no-op sink, so instrumented code paths need no branching.
type Recorder struct {
	mu      sync.Mutex
	spans   []Span
	max     int
	dropped uint64
}

// NewRecorder returns a recorder bounded to max spans (DefaultMaxSpans
// when max <= 0). Spans past the bound are counted, not stored.
func NewRecorder(max int) *Recorder {
	if max <= 0 {
		max = DefaultMaxSpans
	}
	return &Recorder{max: max}
}

// Record appends one span. Safe on a nil receiver.
func (r *Recorder) Record(s Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.spans) >= r.max {
		r.dropped++
	} else {
		r.spans = append(r.spans, s)
	}
	r.mu.Unlock()
}

// Spans returns a copy of the recorded spans. Safe on a nil receiver.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// Len returns the number of stored spans. Safe on a nil receiver.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Reset discards all spans. Safe on a nil receiver.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.dropped = 0
	r.mu.Unlock()
}

// FromWire converts the span block a frame carried across hosts into obs
// spans — the real runtime's path from wire envelope to exporters.
func FromWire(clientID uint32, frameNo uint64, recs []wire.SpanRecord) []Span {
	out := make([]Span, 0, len(recs))
	for _, rec := range recs {
		enq := time.Duration(rec.EnqueueMicros) * time.Microsecond
		start := time.Duration(rec.StartMicros) * time.Microsecond
		end := time.Duration(rec.EndMicros) * time.Microsecond
		out = append(out, Span{
			Service:   rec.Step.String(),
			Host:      rec.Host,
			Step:      rec.Step,
			ClientID:  clientID,
			FrameNo:   frameNo,
			EnqueueAt: enq,
			StartAt:   start,
			EndAt:     end,
			Queue:     start - enq,
			Proc:      end - start,
			Outcome:   Outcome(rec.Outcome),
		})
	}
	return out
}

// Normalize shifts all span timestamps so the earliest enqueue becomes
// zero, returning a new slice. Simulator spans already use run-relative
// virtual time; real-runtime spans carry absolute wall-clock micros, and
// normalizing them makes trace exports start at t=0 regardless of when
// the run happened.
func Normalize(spans []Span) []Span {
	if len(spans) == 0 {
		return nil
	}
	origin := spans[0].EnqueueAt
	for _, s := range spans[1:] {
		if s.EnqueueAt < origin {
			origin = s.EnqueueAt
		}
	}
	out := make([]Span, len(spans))
	for i, s := range spans {
		s.EnqueueAt -= origin
		s.StartAt -= origin
		s.EndAt -= origin
		out[i] = s
	}
	return out
}
