package main

import (
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/wire"
)

func sp(name, parent string, start, end int) span {
	return span{Name: name, Parent: parent,
		start: time.Duration(start) * time.Millisecond, end: time.Duration(end) * time.Millisecond}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		sp("root", "", 0, 100),
		sp("a", "root", 10, 40),  // nested child
		sp("b", "root", 30, 60),  // overlaps a: 10..60 is covered once
		sp("c", "root", 90, 120), // sticks out of the parent: only 90..100 counts
		sp("a1", "a", 10, 20),    // grandchild: comes off a, not off root
		sp("a2", "a", 15, 25),    // overlaps a1
		sp("lone", "nobody", 0, 5),
	}
	want := map[string]int{
		"root": 100 - 50 - 10, // 10..60 and 90..100
		"a":    30 - 15,       // 10..25
		"b":    30, "c": 30, "a1": 10, "a2": 10, "lone": 5,
	}
	got := selfTimes(spans)
	for i, s := range spans {
		if got[i] != time.Duration(want[s.Name])*time.Millisecond {
			t.Errorf("self time of %s = %v, want %d ms", s.Name, got[i], want[s.Name])
		}
	}
}

// A frame's spans tile it: every instant between the client building the
// envelope and the decoded result belongs to the encode, a hop, a queue
// wait, a Process call or an egress.
func TestAssembleTilesTheFrame(t *testing.T) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	rec := frameRecord{
		key: frameKey{1, 9}, sent: ms(0), done: ms(50), speed: 1,
		stages: []wire.StageRecord{
			{Step: wire.StepPrimary, QueueMicros: 500},
			{Step: wire.StepSIFT, QueueMicros: 2000},
		},
	}
	procs := []procEvent{
		{step: wire.StepPrimary, start: ms(3), end: ms(8)},
		{step: wire.StepSIFT, start: ms(13), end: ms(40)},
	}
	sends := []sendEvent{
		{from: fromClient, bytes: 1000, start: ms(0.2), end: ms(2.8)}, // returns after the receiver enqueued at 2.5
		{from: int(wire.StepPrimary), bytes: 300, start: ms(8.5), end: ms(9)},
		{from: int(wire.StepSIFT), bytes: 100, start: ms(41), end: ms(41.5)},
	}
	spans, ok := assemble(rec, procs, sends)
	if !ok {
		t.Fatal("assemble refused complete events")
	}
	ls := layerSamples{}
	ls.addFrame(spans, 1)
	near := func(name string, want float64) {
		t.Helper()
		got := ls.p50(name)
		if d := got - want; d > 1e-6 || d < -1e-6 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	near("trace.frame_ms", 50)
	near("trace.unaccounted_ms", -0.3) // the client's send outlasts its hop by 0.3: claimed twice
	near("client.encode_ms", 0.2)      // 0 -> 0.2
	near("hop.primary_ms", 2.3)        // 0.2 -> 2.5
	near("agent.primary.queue_ms", 0.5)
	near("core.primary.proc_ms", 5)
	near("hop.sift_ms", 2.5) // 8.5 -> 11
	near("agent.sift.queue_ms", 2)
	near("core.sift.proc_ms", 27)
	near("hop.client_ms", 9)               // 41 -> 50
	near("agent.egress_ms", 0.5+1)         // 8 -> 8.5 and 40 -> 41
	near("transport.send_ms", 2.6+0.5+0.5) // the three send calls
	near("transport.ingress_send_ms", 2.6) // the client's
	if _, ok := ls["core.lsh.proc_ms"]; ok {
		t.Error("a stage the frame never visited has a sample")
	}

	// The same frame at half speed normalises to the same numbers.
	slow := layerSamples{}
	slow.addFrame(spans, 2)
	if got := slow.p50("core.sift.proc_ms"); got != 13.5 {
		t.Errorf("at speed 2 core.sift.proc_ms = %v, want 13.5", got)
	}

	if _, ok := assemble(rec, procs[:1], sends); ok {
		t.Error("assemble accepted a frame with a Process event missing")
	}
	if _, ok := assemble(rec, procs, sends[1:]); ok {
		t.Error("assemble accepted a frame with the client's send missing")
	}
}
