package agent

import (
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/transport"
	"github.com/edge-mar/scatter/internal/wire"
)

// hopProcessor is a no-op service stub: it marks the frame done so the
// worker delivers it straight back to the client address. It isolates the
// data-plane cost of a worker hop (decode → process → re-encode →
// forward) from the vision kernels, which have their own benchmarks.
// delay, when set, makes it a slow service for the sidecar contract tests.
type hopProcessor struct {
	step  wire.Step
	delay time.Duration
}

func (p hopProcessor) Step() wire.Step { return p.step }

func (p hopProcessor) Process(fr *wire.Frame) error {
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	fr.Step = wire.StepDone
	return nil
}

// hopPayloadSizes are the paper's frame sizes: ~4 KiB for a compressed
// control/result frame, ~180 KiB for a stateful grayscale frame, and
// ~480 KiB for the scAtteR++ stateless frame with sift state riding along.
var hopPayloadSizes = []int{4 << 10, 180 << 10, 480 << 10}

// sinkBoundFrame builds a frame addressed back to the sink endpoint so a
// hopProcessor worker delivers it there.
func sinkBoundFrame(tb testing.TB, sinkAddr string, payloadSize int) *wire.Frame {
	tb.Helper()
	ap, err := netip.ParseAddrPort(sinkAddr)
	if err != nil {
		tb.Fatal(err)
	}
	fr := &wire.Frame{
		ClientID:   7,
		FrameNo:    1,
		ClientAddr: ap,
		Step:       wire.StepPrimary,
		Payload:    make([]byte, payloadSize),
	}
	for i := range fr.Payload {
		fr.Payload[i] = byte(i * 131)
	}
	return fr
}

// BenchmarkWorkerHop measures one full data-plane hop over real loopback
// sockets: a pre-encoded frame is sent to a worker, the worker decodes it,
// runs a no-op processor, re-encodes, and delivers the result to the
// bench's sink endpoint. ns/op is the per-frame wall time of
// send → decode → process → encode → deliver; B/op and allocs/op are the
// whole-process allocation cost per frame (both directions plus the
// receive path).
func BenchmarkWorkerHop(b *testing.B) {
	for _, network := range []string{"udp", "tcp"} {
		for _, size := range hopPayloadSizes {
			b.Run(fmt.Sprintf("%s/%dKiB", network, size>>10), func(b *testing.B) {
				benchWorkerHop(b, network, size)
			})
		}
	}
}

func benchWorkerHop(b *testing.B, network string, payloadSize int) {
	delivered := make(chan struct{}, 1)
	sink, err := listenEndpoint(network, "127.0.0.1:0", func(data []byte, from net.Addr) {
		delivered <- struct{}{}
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sink.Close()

	w, err := StartWorker(WorkerConfig{
		Step:       wire.StepPrimary,
		Mode:       core.ModeScatterPP,
		Processor:  hopProcessor{step: wire.StepPrimary},
		ListenAddr: "127.0.0.1:0",
		Router:     NewStaticRouter(nil),
		Network:    network,
		QueueCap:   4,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()

	src, err := listenEndpoint(network, "127.0.0.1:0", func(data []byte, from net.Addr) {})
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()

	fr := sinkBoundFrame(b, sink.LocalAddr(), payloadSize)
	data, err := fr.MarshalBinary()
	if err != nil {
		b.Fatal(err)
	}

	// Warm up the path (TCP dials, pools, route caches) before measuring.
	ingress := w.Addr()
	if err := src.SendToAddr(ingress, data); err != nil {
		b.Fatal(err)
	}
	<-delivered

	b.SetBytes(int64(payloadSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.SendToAddr(ingress, data); err != nil {
			b.Fatal(err)
		}
		<-delivered
	}
	b.StopTimer()
	if st := w.Stats(); st.Errors > 0 || st.DroppedQueue > 0 || st.DroppedThreshold > 0 {
		b.Fatalf("worker dropped or errored during bench: %+v", st)
	}
}

// BenchmarkDataplaneEncode measures the worker-side re-encode of a frame
// carrying sidecar analytics — the marshal the hot path pays at every hop.
func BenchmarkDataplaneEncode(b *testing.B) {
	for _, size := range hopPayloadSizes {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			fr := &wire.Frame{
				ClientID:   7,
				FrameNo:    42,
				ClientAddr: netip.MustParseAddrPort("127.0.0.1:9000"),
				Step:       wire.StepLSH,
				Payload:    make([]byte, size),
			}
			fr.AddStage(wire.StepPrimary, 120, 340)
			fr.AddStage(wire.StepSIFT, 90, 12000)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				data, err := fr.MarshalBinary()
				if err != nil {
					b.Fatal(err)
				}
				_ = data
			}
		})
	}
}

var _ transport.Endpoint = (*transport.Conn)(nil)
