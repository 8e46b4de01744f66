package agent

import (
	"fmt"
	"net"
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/obs/routestats"
	"github.com/edge-mar/scatter/internal/wire"
)

// routerHops builds the two-step table the fallback regression walks.
func routerHops() map[wire.Step][]string {
	return map[wire.Step][]string{
		wire.StepSIFT:     {"s0", "s1", "s2"},
		wire.StepEncoding: {"e0", "e1"},
	}
}

// walkRouter drives a deterministic mixed-step selection sequence.
func walkRouter(r Router) []string {
	steps := []wire.Step{
		wire.StepSIFT, wire.StepSIFT, wire.StepEncoding, wire.StepSIFT,
		wire.StepEncoding, wire.StepEncoding, wire.StepSIFT, wire.StepLSH,
	}
	var out []string
	for round := 0; round < 25; round++ {
		for _, step := range steps {
			addr, ok := r.Next(step)
			out = append(out, fmt.Sprintf("%v/%s/%v", step, addr, ok))
		}
	}
	return out
}

// TestStatsRouterColdFallbackMatchesStaticRouter pins the acceptance
// criterion: while every window is cold, a StatsRouter's selections are
// bit-identical to StaticRouter's deterministic round-robin — including
// the cursor reset on SetRoutes.
func TestStatsRouterColdFallbackMatchesStaticRouter(t *testing.T) {
	static := NewStaticRouter(routerHops())
	stats := NewStatsRouter(routerHops(), routestats.Config{})
	if got, want := walkRouter(stats), walkRouter(static); !equalSeq(got, want) {
		t.Fatal("cold StatsRouter diverged from StaticRouter")
	}
	// A route push resets both cursors identically.
	next := map[wire.Step][]string{wire.StepSIFT: {"n0", "n1"}}
	static.SetRoutes(next)
	stats.SetRoutes(next)
	if got, want := walkRouter(stats), walkRouter(static); !equalSeq(got, want) {
		t.Fatal("StatsRouter diverged from StaticRouter after SetRoutes")
	}
}

// TestStatsRouterFallbackWarmsWindows checks the fallback path still
// resolves replica windows, so round-robin traffic is what warms a cold
// table into p2c eligibility.
func TestStatsRouterFallbackWarmsWindows(t *testing.T) {
	stats := NewStatsRouter(routerHops(), routestats.Config{MinSamples: 2})
	for i := 0; i < 6; i++ {
		addr, rep, ok := stats.PickReplica(wire.StepSIFT)
		if !ok {
			t.Fatal("pick failed")
		}
		if rep == nil || rep.Addr() != addr {
			t.Fatalf("fallback pick did not resolve the window for %s", addr)
		}
		rep.Begin()
		rep.Outcome(time.Millisecond, true)
	}
	if _, _, ok := stats.Table().Pick(wire.StepSIFT); !ok {
		t.Fatal("table still cold after fallback traffic warmed every replica")
	}
}

func equalSeq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStatsRouterPickAllocBudget enforces the acceptance criterion that
// replica selection adds zero allocations on the forward hot path.
func TestStatsRouterPickAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	stats := NewStatsRouter(routerHops(), routestats.Config{MinSamples: 2})
	for step, addrs := range routerHops() {
		for _, addr := range addrs {
			rep := stats.Table().Find(step, addr)
			for i := 0; i < 4; i++ {
				rep.Begin()
				rep.Outcome(time.Millisecond, true)
			}
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, ok := stats.PickReplica(wire.StepSIFT); !ok {
			t.Fatal("pick failed")
		}
	})
	if allocs != 0 {
		t.Errorf("PickReplica allocates %.1f/op, want 0", allocs)
	}
}

// stepProcessor advances a frame to the configured next step — a no-op
// service stub for multi-hop routing tests.
type stepProcessor struct{ step, next wire.Step }

func (p stepProcessor) Step() wire.Step { return p.step }

func (p stepProcessor) Process(fr *wire.Frame) error {
	fr.Step = p.next
	return nil
}

// TestWorkerHopAllocBudgetWithStats is TestWorkerHopAllocBudget with the
// stats-driven router and the ack protocol armed across a two-worker
// chain: client → primary (StatsRouter, acks pending) → sift (acks back)
// → sink. The budget is unchanged — stats-driven selection, pending-ack
// bookkeeping, and ack replies are all designed allocation-free.
func TestWorkerHopAllocBudgetWithStats(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	delivered := make(chan struct{}, 1)
	sink, err := listenEndpoint("udp", "127.0.0.1:0", func(data []byte, from net.Addr) {
		delivered <- struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	sift, err := StartWorker(WorkerConfig{
		Step:       wire.StepSIFT,
		Mode:       core.ModeScatterPP,
		Processor:  stepProcessor{step: wire.StepSIFT, next: wire.StepDone},
		ListenAddr: "127.0.0.1:0",
		Router:     NewStaticRouter(nil),
		QueueCap:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sift.Close()

	router := NewStatsRouter(map[wire.Step][]string{
		wire.StepSIFT: {sift.Addr()},
	}, routestats.Config{MinSamples: 2, AckTimeout: 500 * time.Millisecond})
	primary, err := StartWorker(WorkerConfig{
		Step:       wire.StepPrimary,
		Mode:       core.ModeScatterPP,
		Processor:  stepProcessor{step: wire.StepPrimary, next: wire.StepSIFT},
		ListenAddr: "127.0.0.1:0",
		Router:     router,
		QueueCap:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()

	src, err := listenEndpoint("udp", "127.0.0.1:0", func([]byte, net.Addr) {})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	fr := sinkBoundFrame(t, sink.LocalAddr(), 180<<10)
	data, err := fr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ingress := primary.Addr()
	for i := 0; i < 8; i++ { // warm pools, caches, the pending table, and the window
		if err := src.SendToAddr(ingress, data); err != nil {
			t.Fatal(err)
		}
		<-delivered
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := src.SendToAddr(ingress, data); err != nil {
			t.Fatal(err)
		}
		<-delivered
	})
	// Two workers are on the path, so allow each its hop budget.
	if avg > 2*workerHopAllocBudget {
		t.Errorf("stats-routed two-hop chain allocates %.1f/op, budget %d", avg, 2*workerHopAllocBudget)
	}
	for _, w := range []*Worker{primary, sift} {
		if st := w.Stats(); st.Errors > 0 || st.DroppedQueue > 0 || st.DroppedThreshold > 0 {
			t.Fatalf("worker dropped or errored: %+v", st)
		}
	}
	// The ack loop must actually have fed the window.
	rep := router.Table().Find(wire.StepSIFT, sift.Addr())
	if rep == nil || rep.State() != routestats.StateHealthy {
		t.Fatalf("replica window not healthy after clean run")
	}
	d := router.Table().Digest()
	if len(d) != 1 || d[0].Acked == 0 || d[0].Lost > 0 {
		t.Fatalf("ack feed incomplete: %+v", d)
	}
}

// BenchmarkReplicaPick measures the stats-driven selection overhead per
// forward (~150 ns; the 0 allocs/op budget is
// TestStatsRouterPickAllocBudget).
func BenchmarkReplicaPick(b *testing.B) {
	for _, replicas := range []int{2, 3, 8} {
		b.Run(fmt.Sprintf("p2c/replicas%d", replicas), func(b *testing.B) {
			addrs := make([]string, replicas)
			for i := range addrs {
				addrs[i] = fmt.Sprintf("127.0.0.1:%d", 9000+i)
			}
			stats := NewStatsRouter(map[wire.Step][]string{wire.StepSIFT: addrs}, routestats.Config{MinSamples: 1})
			for _, addr := range addrs {
				rep := stats.Table().Find(wire.StepSIFT, addr)
				rep.Begin()
				rep.Outcome(time.Millisecond, true)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, ok := stats.PickReplica(wire.StepSIFT); !ok {
					b.Fatal("pick failed")
				}
			}
		})
	}
	b.Run("rr-fallback", func(b *testing.B) {
		stats := NewStatsRouter(routerHops(), routestats.Config{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, ok := stats.PickReplica(wire.StepSIFT); !ok {
				b.Fatal("pick failed")
			}
		}
	})
	b.Run("static-rr-baseline", func(b *testing.B) {
		static := NewStaticRouter(routerHops())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := static.Next(wire.StepSIFT); !ok {
				b.Fatal("pick failed")
			}
		}
	})
}
