package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/wire"
)

// frameSpans builds one frame's journey across all five services on two
// hosts with non-zero queue and proc segments.
func frameSpans(client uint32, frame uint64, base time.Duration) []Span {
	hosts := []string{"E1", "E1", "E2", "E2", "E2"}
	var out []Span
	at := base
	for step := wire.StepPrimary; step < wire.StepDone; step++ {
		queue := time.Duration(step+1) * 200 * time.Microsecond
		proc := time.Duration(step+1) * time.Millisecond
		out = append(out, Span{
			Service:   step.String(),
			Host:      hosts[step],
			Step:      step,
			ClientID:  client,
			FrameNo:   frame,
			EnqueueAt: at,
			StartAt:   at + queue,
			EndAt:     at + queue + proc,
			Queue:     queue,
			Proc:      proc,
			Outcome:   OutcomeOK,
		})
		at += queue + proc + 500*time.Microsecond
	}
	return out
}

func TestWriteChromeTrace(t *testing.T) {
	spans := frameSpans(1, 1, 0)
	spans = append(spans, Span{
		Service: "sift", Host: "E1", Step: wire.StepSIFT, ClientID: 2, FrameNo: 1,
		EnqueueAt: time.Millisecond, StartAt: time.Millisecond, EndAt: time.Millisecond,
		Outcome: OutcomeOverflow,
	})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}

	var procSlices, queueSlices, metaProcs, metaThreads, drops, flows int
	services := map[string]bool{}
	for _, ev := range events {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		cat, _ := ev["cat"].(string)
		switch {
		case ph == "M" && name == "process_name":
			metaProcs++
		case ph == "M" && name == "thread_name":
			metaThreads++
		case ph == "X" && cat == "queue":
			queueSlices++
			if dur, ok := ev["dur"].(float64); !ok || dur <= 0 {
				t.Errorf("queue slice without positive dur: %v", ev)
			}
		case ph == "X":
			procSlices++
			services[name] = true
			if dur, ok := ev["dur"].(float64); !ok || dur <= 0 {
				t.Errorf("proc slice without positive dur: %v", ev)
			}
		case ph == "i":
			drops++
		case ph == "s" || ph == "t":
			flows++
		}
	}
	if metaProcs != 2 {
		t.Errorf("process metadata = %d, want 2 hosts", metaProcs)
	}
	if metaThreads != 5 {
		t.Errorf("thread metadata = %d, want 5 service tracks", metaThreads)
	}
	if procSlices != 5 || queueSlices != 5 {
		t.Errorf("slices proc=%d queue=%d, want 5 each", procSlices, queueSlices)
	}
	for step := wire.StepPrimary; step < wire.StepDone; step++ {
		if !services[step.String()] {
			t.Errorf("no proc slice for %s", step)
		}
	}
	if drops != 1 {
		t.Errorf("drop instants = %d, want 1", drops)
	}
	if flows != 6 { // one flow event per span; the first of each frame is "s"
		t.Errorf("flow events = %d, want 6", flows)
	}
}

func TestFromWireRoundTrip(t *testing.T) {
	recs := []wire.SpanRecord{
		{Step: wire.StepPrimary, Outcome: uint8(OutcomeOK), Host: "E1",
			EnqueueMicros: 1000, StartMicros: 1400, EndMicros: 2400},
		{Step: wire.StepSIFT, Outcome: uint8(OutcomeThreshold), Host: "E2",
			EnqueueMicros: 2500, StartMicros: 2500, EndMicros: 102500},
	}
	spans := FromWire(7, 42, recs)
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	s := spans[0]
	if s.Service != "primary" || s.Host != "E1" || s.ClientID != 7 || s.FrameNo != 42 {
		t.Errorf("identity wrong: %+v", s)
	}
	if s.Queue != 400*time.Microsecond || s.Proc != time.Millisecond {
		t.Errorf("segments wrong: queue=%v proc=%v", s.Queue, s.Proc)
	}
	if spans[1].Outcome != OutcomeThreshold || !spans[1].Outcome.Dropped() {
		t.Errorf("outcome wrong: %v", spans[1].Outcome)
	}
}

func TestNormalize(t *testing.T) {
	base := 1_700_000_000 * time.Second // absolute wall-clock origin
	spans := []Span{
		{EnqueueAt: base + 10*time.Millisecond, StartAt: base + 12*time.Millisecond, EndAt: base + 20*time.Millisecond},
		{EnqueueAt: base, StartAt: base + time.Millisecond, EndAt: base + 2*time.Millisecond},
	}
	norm := Normalize(spans)
	if norm[1].EnqueueAt != 0 {
		t.Errorf("earliest enqueue = %v, want 0", norm[1].EnqueueAt)
	}
	if norm[0].EnqueueAt != 10*time.Millisecond || norm[0].EndAt != 20*time.Millisecond {
		t.Errorf("shifted span = %+v", norm[0])
	}
	if spans[1].EnqueueAt != base {
		t.Error("Normalize mutated its input")
	}
	if Normalize(nil) != nil {
		t.Error("Normalize(nil) != nil")
	}
}

// Dropped reports whether the outcome is terminal for the frame at this
// service.
func (o Outcome) Dropped() bool { return o != OutcomeOK }
