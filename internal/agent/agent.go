// Package agent implements the real-mode scAtteR runtime: service workers
// that receive frames over UDP, apply the pipeline semantics (drop-if-busy
// for scAtteR, sidecar queue with latency threshold for scAtteR++), invoke
// the real vision processors, and forward results to the next hop or back
// to the client. It is the process-level equivalent of the containerized
// microservices in the paper's testbed; isolation is goroutine-level
// rather than container-level (see DESIGN.md substitutions).
package agent

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/obs"
	"github.com/edge-mar/scatter/internal/obs/routestats"
	"github.com/edge-mar/scatter/internal/rpc"
	"github.com/edge-mar/scatter/internal/transport"
	"github.com/edge-mar/scatter/internal/wire"
)

// Router resolves the address of the next pipeline hop. Implementations
// must be safe for concurrent use.
type Router interface {
	// Next returns the UDP address serving the given step, rotating
	// across replicas (semantic addressing).
	Next(step wire.Step) (string, bool)
}

// RouteUpdater is a Router whose replica table a control plane can
// replace at runtime. StaticRouter implements it; the Deployer drives it.
type RouteUpdater interface {
	Router
	// SetRoutes atomically replaces the step→replica-addresses table.
	SetRoutes(hops map[wire.Step][]string)
}

// StaticRouter is a fixed routing table with round-robin replica
// selection.
type StaticRouter struct {
	mu    sync.Mutex
	hops  map[wire.Step][]string
	index map[wire.Step]int
}

// NewStaticRouter builds a router from a step→replica-addresses table.
func NewStaticRouter(hops map[wire.Step][]string) *StaticRouter {
	cp := make(map[wire.Step][]string, len(hops))
	for k, v := range hops {
		cp[k] = append([]string(nil), v...)
	}
	return &StaticRouter{hops: cp, index: make(map[wire.Step]int)}
}

// SetRoutes atomically replaces the routing table — used when worker
// addresses become known only after the workers bind (ephemeral ports),
// and by control planes pushing updated placements.
func (r *StaticRouter) SetRoutes(hops map[wire.Step][]string) {
	cp := make(map[wire.Step][]string, len(hops))
	for k, v := range hops {
		cp[k] = append([]string(nil), v...)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hops = cp
	r.index = make(map[wire.Step]int)
}

// Next implements Router.
func (r *StaticRouter) Next(step wire.Step) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	addrs := r.hops[step]
	if len(addrs) == 0 {
		return "", false
	}
	i := r.index[step] % len(addrs)
	r.index[step]++
	return addrs[i], true
}

// WorkerStats are cumulative counters exposed by a worker — the sidecar
// analytics of scAtteR++ and the hardware-independent QoS signals the
// paper argues orchestrators should consume.
type WorkerStats struct {
	Received         uint64
	Processed        uint64
	DroppedBusy      uint64 // scAtteR busy-drops
	DroppedQueue     uint64 // sidecar queue overflow
	DroppedThreshold uint64 // sidecar latency-threshold drops
	DroppedShutdown  uint64 // abandoned in the sidecar queue at Close
	// DroppedAdmission counts ingress frames refused by admission control
	// (reject, or the decimated share under degrade) — a deliberate
	// control action, kept out of the distress drop counters so the
	// controller's recovery signal stays clean.
	DroppedAdmission uint64
	Errors           uint64
	ForwardRetries   uint64 // next-hop send retries under the budget
	QueueMicros      uint64 // total queueing time of processed frames
	ProcMicros       uint64 // total processing time
	// FastPathSkips counts frames this worker short-circuited to StepDone
	// ahead of the matching stage — the primary worker's tracker-gated
	// fast path answering from published verdicts.
	FastPathSkips uint64
}

// WorkerConfig configures one service worker.
type WorkerConfig struct {
	Step      wire.Step
	Mode      core.Mode
	Processor core.Processor
	// ListenAddr is the worker's UDP ingress ("host:port", port 0 for
	// ephemeral).
	ListenAddr string
	Router     Router
	// Threshold is the scAtteR++ sidecar queue-wait budget (default
	// 100 ms).
	Threshold time.Duration
	// QueueCap bounds the sidecar queue (default 64).
	QueueCap int
	// StateRPCListen, for a stateful sift worker, starts a state-fetch
	// RPC server on this address ("host:port", port 0 ok).
	StateRPCListen string
	// Network selects the inter-service transport: "udp" (default, the
	// paper's baseline) or "tcp" (the reliable alternative of A.1.2).
	// All workers of one deployment must agree.
	Network string
	// WrapEndpoint, when set, wraps the worker's transport endpoint after
	// binding — the hook chaos tests and fault-injection deployments use
	// to interpose a transport.FaultyEndpoint on real sockets.
	WrapEndpoint func(transport.Endpoint) transport.Endpoint
	// ForwardAttempts is the total number of send attempts per outbound
	// frame, including the first (default 2). Retries re-resolve the route
	// so they can fail over to another replica of the next hop.
	ForwardAttempts int
	// ForwardBackoff is the delay before the second attempt, doubling per
	// attempt (default 25 ms).
	ForwardBackoff time.Duration
	// Obs, when set, receives live per-service telemetry (arrivals,
	// drops, queue/proc latency histograms) — the concurrent registry an
	// exposition endpoint and orchestrator heartbeats read during the
	// run, unlike the run-end metrics.Collector.
	Obs *obs.Registry
	// Host names this worker's machine in tracing spans. Defaults to the
	// OS hostname.
	Host string
	// TraceSpans attaches a per-frame span record to every processed
	// frame (the wire envelope's versioned span block), so the frame
	// carries its own latency decomposition across hosts. Off by default:
	// spans cost ~35 bytes per stage on the wire.
	TraceSpans bool
	// Spans, when TraceSpans is on, receives the spans that cannot ride a
	// frame because the frame died here: busy/overflow/threshold drops,
	// processing errors, and shutdown-abandoned frames all record a
	// drop-outcome span locally, so traces and drop counters tell one
	// story. OK spans still travel on the frame only.
	Spans *obs.Recorder
	// Log defaults to slog.Default().
	Log *slog.Logger

	// framePool overrides the worker's envelope pool and wrapOwner wraps
	// its receive handler. In-package tests inject counting versions to
	// assert that every envelope and every receive buffer is released
	// exactly once, on every exit.
	framePool framePool
	wrapOwner func(transport.OwningHandler) transport.OwningHandler
}

// framePool is the frame-envelope recycling contract the worker's data
// plane runs on (wire.FramePool in production).
type framePool interface {
	Get() *wire.Frame
	Put(*wire.Frame)
}

// listenEndpoint opens the configured transport with a borrowing handler.
func listenEndpoint(network, addr string, handler transport.Handler) (transport.Endpoint, error) {
	switch network {
	case "", "udp":
		return transport.Listen(addr, handler)
	case "tcp":
		return transport.ListenTCP(addr, handler)
	default:
		return nil, fmt.Errorf("agent: unknown network %q", network)
	}
}

// listenOwning opens the configured transport with a handler that keeps
// the receive buffers it is handed.
func listenOwning(network, addr string, owner transport.OwningHandler) (transport.Endpoint, error) {
	switch network {
	case "", "udp":
		return transport.ListenOwning(addr, owner)
	case "tcp":
		return transport.ListenTCPOwning(addr, owner)
	default:
		return nil, fmt.Errorf("agent: unknown network %q", network)
	}
}

// endpointBox wraps the transport interface for atomic publication.
type endpointBox struct {
	ep transport.Endpoint
}

// Worker is one running service instance.
type Worker struct {
	cfg WorkerConfig
	// conn is published atomically: the transport read loop can deliver
	// frames before StartWorker's caller-side assignment completes.
	conn    atomic.Pointer[endpointBox]
	rpc     *rpc.Server
	rpcAddr string
	queue   chan queuedItem
	busy    atomic.Bool
	wg      sync.WaitGroup
	done    chan struct{}
	// live is the optional obs instrument set for this service (nil when
	// no registry was configured).
	live *obs.ServiceMetrics

	received, processed             atomic.Uint64
	droppedBusy, droppedQueue       atomic.Uint64
	droppedThreshold, errorsCount   atomic.Uint64
	droppedShutdown, forwardRetries atomic.Uint64
	droppedAdmission                atomic.Uint64
	queueMicros, procMicros         atomic.Uint64
	fastSkips                       atomic.Uint64

	// admit is the admission verdict in force at this worker's ingress
	// (core.AdmitState; pushed by the control plane via SetAdmitState).
	// A plain atomic load on the hot path — no allocation, no lock.
	admit atomic.Int32

	// Steady-state pools (DESIGN.md "Buffer ownership & pooling"): every
	// inbound frame decodes without a copy into a recycled envelope whose
	// payload aliases the endpoint's receive buffer, and every outbound
	// frame encodes into recycled scratch, so the per-frame hot path
	// allocates nothing once capacities warm up. frames is an interface
	// only so tests can substitute a counting pool; production workers
	// always run on a wire.FramePool.
	frames  framePool
	encPool wire.BufPool

	// clientAddrs caches the string form of client delivery addresses
	// (netip.AddrPort.String allocates); bounded like the transport
	// resolve cache. Ack replies reuse it for sender addresses.
	clientAddrMu sync.RWMutex
	clientAddrs  map[netip.AddrPort]string

	// Stats-driven routing plumbing. picker is non-nil when cfg.Router
	// implements ReplicaPicker (e.g. a StatsRouter): forwards then charge
	// their outcome to the chosen replica's statistics window. ackMode
	// additionally arms the hop-acknowledgement protocol — UDP only;
	// over TCP the synchronous send is its own latency/loss signal.
	picker  ReplicaPicker
	ackMode bool
	pendMu  sync.Mutex
	pending map[uint64]pendingAck
}

// pendingAck is one ack-awaited forward: which replica window to credit
// and when the frame left, so the ack round-trip is the hop latency.
type pendingAck struct {
	rep *routestats.Replica
	at  time.Time
}

// maxClientAddrCacheEntries bounds the delivery-address string cache.
const maxClientAddrCacheEntries = 4096

type queuedItem struct {
	fr *wire.Frame
	at time.Time
	rx rxBuf
}

// rxBuf is a receive buffer the worker owns: the frame decoded from it
// aliases its payload, so it goes back to the endpoint only together
// with the frame (recycle).
type rxBuf struct {
	data []byte
	rel  transport.Releaser
}

// StartWorker binds the worker's sockets and begins serving.
func StartWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Processor == nil {
		return nil, errors.New("agent: nil processor")
	}
	if cfg.Processor.Step() != cfg.Step {
		return nil, fmt.Errorf("agent: processor serves %s, worker configured for %s",
			cfg.Processor.Step(), cfg.Step)
	}
	if cfg.Router == nil {
		return nil, errors.New("agent: nil router")
	}
	if cfg.Threshold <= 0 {
		cfg.Threshold = 100 * time.Millisecond
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.ForwardAttempts <= 0 {
		cfg.ForwardAttempts = 2
	}
	if cfg.ForwardBackoff <= 0 {
		cfg.ForwardBackoff = 25 * time.Millisecond
	}
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	if cfg.Host == "" {
		if h, err := os.Hostname(); err == nil && h != "" {
			cfg.Host = h
		} else {
			cfg.Host = "node"
		}
	}
	w := &Worker{
		cfg:         cfg,
		done:        make(chan struct{}),
		clientAddrs: make(map[netip.AddrPort]string),
		frames:      cfg.framePool,
	}
	if w.frames == nil {
		w.frames = new(wire.FramePool)
	}
	if cfg.Obs != nil {
		w.live = cfg.Obs.Service(cfg.Step.String())
	}
	if p, ok := cfg.Router.(ReplicaPicker); ok {
		w.picker = p
		w.ackMode = cfg.Network == "" || cfg.Network == "udp"
		if w.ackMode {
			w.pending = make(map[uint64]pendingAck)
		}
	}
	// Everything the receive path touches must exist before the UDP read
	// loop starts delivering messages.
	if cfg.Mode == core.ModeScatterPP {
		w.queue = make(chan queuedItem, cfg.QueueCap)
	}
	if cfg.StateRPCListen != "" {
		s, ok := cfg.Processor.(*core.SIFT)
		if !ok {
			return nil, errors.New("agent: StateRPCListen on a non-sift worker")
		}
		w.rpc = rpc.NewServer(stateFetchHandler(s))
		addr, err := w.rpc.Listen(cfg.StateRPCListen)
		if err != nil {
			return nil, err
		}
		w.rpcAddr = addr
	}
	onMessage := transport.OwningHandler(w.onMessage)
	if cfg.wrapOwner != nil {
		onMessage = cfg.wrapOwner(onMessage)
	}
	conn, err := listenOwning(cfg.Network, cfg.ListenAddr, onMessage)
	if err != nil {
		if w.rpc != nil {
			w.rpc.Close()
		}
		return nil, err
	}
	if uc, ok := conn.(*transport.Conn); ok {
		// Surface reassembly-layer losses (timeout, table bounds,
		// malformed geometry) as drop-outcome spans and live drop
		// counts, so transport drops and worker drops tell one story.
		uc.SetDropHook(w.onTransportDrop)
	}
	if cfg.WrapEndpoint != nil {
		conn = cfg.WrapEndpoint(conn)
	}
	w.conn.Store(&endpointBox{ep: conn})
	if w.queue != nil {
		w.wg.Add(1)
		go w.sidecarLoop()
	}
	if w.ackMode {
		w.wg.Add(1)
		go w.ackSweepLoop()
	}
	return w, nil
}

// Addr returns the worker's ingress address.
func (w *Worker) Addr() string { return w.conn.Load().ep.LocalAddr() }

// RPCAddr returns the bound state-fetch RPC address, or "" when this
// worker serves no state.
func (w *Worker) RPCAddr() string { return w.rpcAddr }

// Close stops the worker. Frames still waiting in the scAtteR++ sidecar
// queue are accounted as shutdown drops (with drop-outcome spans when
// tracing) rather than silently abandoned, so counters reconcile with
// arrivals across a failover.
func (w *Worker) Close() error {
	select {
	case <-w.done:
		return nil
	default:
	}
	close(w.done)
	err := w.conn.Load().ep.Close()
	if w.rpc != nil {
		w.rpc.Close()
	}
	w.wg.Wait()
	if w.queue != nil {
		now := time.Now()
		for {
			select {
			case item := <-w.queue:
				w.droppedShutdown.Add(1)
				if w.live != nil {
					w.live.Dropped.Inc()
				}
				w.dropSpan(item.fr, obs.OutcomeShutdown, item.at, now, now)
				w.recycle(item.fr, item.rx)
			default:
				if w.live != nil {
					w.live.QueueLen.Set(0)
				}
				return err
			}
		}
	}
	return err
}

// dropSpan records a local span for a frame that died at this worker and
// therefore cannot carry its span downstream. No-op unless TraceSpans is
// on (Recorder.Record is nil-safe, so an unset Spans sink is fine).
func (w *Worker) dropSpan(fr *wire.Frame, outcome obs.Outcome, enq, start, end time.Time) {
	if !w.cfg.TraceSpans {
		return
	}
	w.cfg.Spans.Record(obs.Span{
		Service:   w.cfg.Step.String(),
		Host:      w.cfg.Host,
		Step:      w.cfg.Step,
		ClientID:  fr.ClientID,
		FrameNo:   fr.FrameNo,
		EnqueueAt: time.Duration(enq.UnixMicro()) * time.Microsecond,
		StartAt:   time.Duration(start.UnixMicro()) * time.Microsecond,
		EndAt:     time.Duration(end.UnixMicro()) * time.Microsecond,
		Queue:     start.Sub(enq),
		Proc:      end.Sub(start),
		Outcome:   outcome,
	})
}

// SetAdmitState installs the admission verdict enforced at this worker's
// ingress. Safe for concurrent use with the data plane.
func (w *Worker) SetAdmitState(s core.AdmitState) { w.admit.Store(int32(s)) }

// AdmitState returns the verdict currently enforced at ingress.
func (w *Worker) AdmitState() core.AdmitState { return core.AdmitState(w.admit.Load()) }

// Stats returns a snapshot of the worker's counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Received:         w.received.Load(),
		Processed:        w.processed.Load(),
		DroppedBusy:      w.droppedBusy.Load(),
		DroppedQueue:     w.droppedQueue.Load(),
		DroppedThreshold: w.droppedThreshold.Load(),
		DroppedShutdown:  w.droppedShutdown.Load(),
		DroppedAdmission: w.droppedAdmission.Load(),
		Errors:           w.errorsCount.Load(),
		ForwardRetries:   w.forwardRetries.Load(),
		QueueMicros:      w.queueMicros.Load(),
		ProcMicros:       w.procMicros.Load(),
		FastPathSkips:    w.fastSkips.Load(),
	}
}

// onTransportDrop is the UDP endpoint's drop hook: a reassembly-layer
// loss is a lost frame that never reached onMessage, so it is counted
// against this worker and, when tracing, recorded as a drop-outcome
// span (with no frame identity — the envelope never decoded).
func (w *Worker) onTransportDrop(from, reason string) {
	if w.live != nil {
		w.live.Dropped.Inc()
	}
	if !w.cfg.TraceSpans {
		return
	}
	now := time.Now()
	at := time.Duration(now.UnixMicro()) * time.Microsecond
	w.cfg.Spans.Record(obs.Span{
		Service:   w.cfg.Step.String(),
		Host:      w.cfg.Host,
		Step:      w.cfg.Step,
		EnqueueAt: at,
		StartAt:   at,
		EndAt:     at,
		Outcome:   obs.OutcomeTransport,
	})
}

// onMessage is the transport's owning receive handler. The worker owns
// data until it releases it (transport.OwningHandler contract), so the
// frame is decoded without a copy into a pooled envelope whose payload
// aliases data. Envelope and buffer travel together to whichever path
// consumes them — the processing goroutine (scAtteR), the sidecar queue
// (scAtteR++), or a drop path — and the consumer recycles both.
func (w *Worker) onMessage(data []byte, from net.Addr, rel transport.Releaser) {
	rx := rxBuf{data: data, rel: rel}
	if wire.IsAck(data) {
		w.onAck(data)
		rel.Release(data)
		return
	}
	fr := w.frames.Get()
	if err := fr.UnmarshalBinaryNoCopy(data); err != nil {
		w.recycle(fr, rx)
		w.errorsCount.Add(1)
		if w.live != nil {
			w.live.Errors.Inc()
		}
		return
	}
	w.received.Add(1)
	now := time.Now()
	if w.live != nil {
		w.live.Arrived.Inc()
	}
	// Admission enforcement at the door, before the queue: a rejected
	// service turns every frame away; a degraded one admits one frame in
	// core.DegradeStride (by frame number, so each client keeps a steady
	// reduced cadence). Refused frames are never acked — the upstream
	// route window books a loss, which is the backpressure that steers
	// stats-driven routing away.
	if st := core.AdmitState(w.admit.Load()); st != core.AdmitOK && !st.Admits(fr.FrameNo) {
		w.droppedAdmission.Add(1)
		if w.live != nil {
			w.live.AdmissionDrops.Inc()
		}
		w.dropSpan(fr, obs.OutcomeAdmission, now, now, now)
		w.recycle(fr, rx)
		return
	}
	// Ack identity, captured before envelope ownership moves to the
	// processing goroutine or the sidecar queue. Acks are sent only on
	// admission: a frame dropped at the door stays unacknowledged, and
	// the sender's timeout books it as a route loss.
	ackWanted := fr.AckWanted
	clientID, frameNo, step := fr.ClientID, fr.FrameNo, fr.Step
	switch w.cfg.Mode {
	case core.ModeScatter:
		// One frame at a time; outstanding requests at a busy service are
		// dropped.
		if !w.busy.CompareAndSwap(false, true) {
			w.droppedBusy.Add(1)
			if w.live != nil {
				w.live.Dropped.Inc()
			}
			w.dropSpan(fr, obs.OutcomeBusy, now, now, now)
			w.recycle(fr, rx)
			return
		}
		if ackWanted {
			w.sendAck(from, clientID, frameNo, step)
		}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			defer w.busy.Store(false)
			w.process(fr, now, 0)
			w.recycle(fr, rx)
		}()
	case core.ModeScatterPP:
		select {
		case w.queue <- queuedItem{fr: fr, at: now, rx: rx}:
			if w.live != nil {
				w.live.QueueLen.Set(int64(len(w.queue)))
			}
			if ackWanted {
				w.sendAck(from, clientID, frameNo, step)
			}
		default:
			w.droppedQueue.Add(1)
			if w.live != nil {
				w.live.Dropped.Inc()
			}
			w.dropSpan(fr, obs.OutcomeOverflow, now, now, now)
			w.recycle(fr, rx)
		}
	default:
		w.recycle(fr, rx)
	}
}

// recycle ends a frame's life at this worker, on every exit and exactly
// once: the envelope goes back to the pool with its payload cut loose
// first — it may alias the receive buffer, which must never become pooled
// envelope capacity — and the buffer goes back to its endpoint.
func (w *Worker) recycle(fr *wire.Frame, rx rxBuf) {
	fr.Payload = nil
	w.frames.Put(fr)
	rx.rel.Release(rx.data)
}

// sendAck returns a hop acknowledgement to the previous hop. Only UDP
// peers are acked: the reply goes to the sender's data socket (UDP
// workers send and listen on one socket), and TCP senders already get a
// synchronous send signal.
func (w *Worker) sendAck(from net.Addr, clientID uint32, frameNo uint64, step wire.Step) {
	ua, ok := from.(*net.UDPAddr)
	if !ok {
		return
	}
	box := w.conn.Load()
	if box == nil {
		return
	}
	buf := wire.AppendAck(w.encPool.Get(wire.AckSize), clientID, frameNo, step)
	if err := box.ep.SendToAddr(w.clientAddrString(ua.AddrPort()), buf); err != nil {
		w.cfg.Log.Debug("ack send failed", "step", step, "err", err)
	}
	w.encPool.Put(buf)
}

// onAck resolves a pending forward with the measured ack round-trip.
// Unmatched acks (already swept as lost, or duplicated by the network)
// are ignored.
func (w *Worker) onAck(data []byte) {
	clientID, frameNo, step, ok := wire.ParseAck(data)
	if !ok {
		return
	}
	key := wire.AckKey(clientID, frameNo, step)
	w.pendMu.Lock()
	p, found := w.pending[key]
	if found {
		delete(w.pending, key)
	}
	w.pendMu.Unlock()
	if found {
		p.rep.Outcome(time.Since(p.at), true)
	}
}

// registerPending arms the ack timeout for one forwarded frame.
func (w *Worker) registerPending(clientID uint32, frameNo uint64, step wire.Step, rep *routestats.Replica) {
	key := wire.AckKey(clientID, frameNo, step)
	w.pendMu.Lock()
	w.pending[key] = pendingAck{rep: rep, at: time.Now()}
	w.pendMu.Unlock()
}

// ackSweepLoop expires pending forwards that never got their ack,
// booking each as a loss against its replica window — the signal that
// distinguishes a lossy or overloaded replica from a healthy one.
func (w *Worker) ackSweepLoop() {
	defer w.wg.Done()
	timeout := w.picker.AckTimeout()
	tick := timeout / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-w.done:
			return
		case now := <-ticker.C:
			w.pendMu.Lock()
			for key, p := range w.pending {
				if now.Sub(p.at) >= timeout {
					delete(w.pending, key)
					p.rep.Outcome(0, false)
				}
			}
			w.pendMu.Unlock()
		}
	}
}

// sidecarLoop serves the scAtteR++ queue in arrival order. It checks done
// before it takes each item, so a closing worker leaves what is still
// queued to Close, which counts it as shutdown drops.
func (w *Worker) sidecarLoop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.done:
			return
		default:
		}
		select {
		case <-w.done:
			return
		case item := <-w.queue:
			if w.live != nil {
				w.live.QueueLen.Set(int64(len(w.queue)))
			}
			wait := time.Since(item.at)
			if wait > w.cfg.Threshold {
				w.droppedThreshold.Add(1)
				if w.live != nil {
					w.live.Dropped.Inc()
				}
				now := time.Now()
				w.dropSpan(item.fr, obs.OutcomeThreshold, item.at, now, now)
				w.recycle(item.fr, item.rx)
				continue
			}
			w.process(item.fr, item.at, wait)
			w.recycle(item.fr, item.rx)
		}
	}
}

// process runs the service on one frame, then does the accounting,
// stage/span attachment, re-encode, and forward/deliver.
func (w *Worker) process(fr *wire.Frame, enqueuedAt time.Time, queueWait time.Duration) {
	start := time.Now()
	err := w.cfg.Processor.Process(fr)
	end := time.Now()
	proc := end.Sub(start)
	if err != nil {
		w.errorsCount.Add(1)
		if w.live != nil {
			w.live.Errors.Inc()
		}
		w.dropSpan(fr, obs.OutcomeError, enqueuedAt, start, end)
		w.cfg.Log.Debug("process failed", "step", w.cfg.Step, "err", err)
		return
	}
	w.processed.Add(1)
	w.queueMicros.Add(uint64(queueWait.Microseconds()))
	w.procMicros.Add(uint64(proc.Microseconds()))
	if w.live != nil {
		w.live.RecordProcessed(queueWait, proc)
	}
	fr.AddStage(w.cfg.Step, uint32(queueWait.Microseconds()), uint32(proc.Microseconds()))
	if w.cfg.TraceSpans {
		// The span rides the envelope across hosts like the paper's
		// intermediary metadata; timestamps are absolute µs so spans from
		// different hosts share one clock (modulo host clock skew).
		fr.AddSpan(wire.SpanRecord{
			Step:          w.cfg.Step,
			Outcome:       uint8(obs.OutcomeOK),
			Host:          w.cfg.Host,
			EnqueueMicros: uint64(enqueuedAt.UnixMicro()),
			StartMicros:   uint64(start.UnixMicro()),
			EndMicros:     uint64(end.UnixMicro()),
		})
	}

	// Hop acknowledgements are requested on worker→worker forwards only
	// (never on client delivery): the next hop acks admission, and the
	// round-trip feeds this worker's replica statistics windows.
	fr.AckWanted = w.ackMode && fr.Step != wire.StepDone

	// Re-encode into pooled scratch: the transport must not retain the
	// buffer after SendToAddr returns (Endpoint contract), so it goes
	// straight back to the pool when the forward resolves.
	data, err := fr.AppendBinary(w.encPool.Get(fr.EncodedSize()))
	defer w.encPool.Put(data)
	if err != nil {
		w.errorsCount.Add(1)
		return
	}
	box := w.conn.Load()
	if box == nil {
		// A frame raced ahead of StartWorker's publication; extremely
		// early arrivals are dropped like any other overload.
		w.errorsCount.Add(1)
		return
	}
	conn := box.ep
	if fr.Step == wire.StepDone {
		if w.cfg.Step != wire.StepMatching {
			// Only matching legitimately terminates the pipeline; an
			// earlier stage arriving at StepDone short-circuited through
			// the fast-path gate.
			w.fastSkips.Add(1)
		}
		if !fr.ClientAddr.IsValid() {
			w.errorsCount.Add(1)
			return
		}
		clientAddr := w.clientAddrString(fr.ClientAddr)
		if err := w.forward(conn, wire.StepDone, clientAddr, data, fr.ClientID, fr.FrameNo); err != nil {
			w.errorsCount.Add(1)
			w.cfg.Log.Debug("deliver failed", "client", clientAddr, "err", err)
		}
		return
	}
	if err := w.forward(conn, fr.Step, "", data, fr.ClientID, fr.FrameNo); err != nil {
		w.errorsCount.Add(1)
		w.cfg.Log.Warn("forward failed", "step", fr.Step, "err", err)
	}
}

// clientAddrString formats a client delivery address through a bounded
// cache, so steady-state deliveries skip netip.AddrPort.String's
// allocation.
func (w *Worker) clientAddrString(ap netip.AddrPort) string {
	w.clientAddrMu.RLock()
	s, ok := w.clientAddrs[ap]
	w.clientAddrMu.RUnlock()
	if ok {
		return s
	}
	s = ap.String()
	w.clientAddrMu.Lock()
	if len(w.clientAddrs) < maxClientAddrCacheEntries {
		w.clientAddrs[ap] = s
	}
	w.clientAddrMu.Unlock()
	return s
}

// errNoRoute reports a step with no live replica in the routing table.
var errNoRoute = errors.New("agent: no route for step")

// forward sends an outbound frame under the worker's retry budget.
// With fixedAddr set (final delivery to a client) every attempt targets
// that address; otherwise the route for step is re-resolved on every
// attempt, so after a control-plane route update a retry fails over to
// the replacement replica instead of re-hitting the dead one — without
// retries, a send failure silently loses the frame (it only shows up as
// an error count). The destination is plain arguments rather than a
// resolver callback so the per-frame hot path builds no closures.
//
// With a stats-aware router, every pick charges the chosen replica's
// window: a local send error immediately, an unacknowledged UDP forward
// via the pending-ack sweep, a TCP forward by its synchronous send.
func (w *Worker) forward(conn transport.Endpoint, step wire.Step, fixedAddr string, data []byte,
	clientID uint32, frameNo uint64) error {
	backoff := w.cfg.ForwardBackoff
	var lastErr error
	for attempt := 0; attempt < w.cfg.ForwardAttempts; attempt++ {
		if attempt > 0 {
			w.forwardRetries.Add(1)
			t := time.NewTimer(backoff)
			select {
			case <-w.done:
				t.Stop()
				return transport.ErrClosed
			case <-t.C:
			}
			backoff *= 2
		}
		addr, ok := fixedAddr, true
		var rep *routestats.Replica
		if fixedAddr == "" {
			if w.picker != nil {
				addr, rep, ok = w.picker.PickReplica(step)
			} else {
				addr, ok = w.cfg.Router.Next(step)
			}
		}
		if !ok {
			lastErr = errNoRoute
			continue
		}
		if rep == nil {
			if err := conn.SendToAddr(addr, data); err != nil {
				lastErr = err
				continue
			}
			return nil
		}
		w.routeSpan(step, addr, clientID, frameNo)
		rep.Begin()
		if w.ackMode {
			if err := conn.SendToAddr(addr, data); err != nil {
				rep.OutcomeSendError()
				lastErr = err
				continue
			}
			w.registerPending(clientID, frameNo, step, rep)
			return nil
		}
		t0 := time.Now()
		if err := conn.SendToAddr(addr, data); err != nil {
			rep.OutcomeSendError()
			lastErr = err
			continue
		}
		rep.Outcome(time.Since(t0), true)
		return nil
	}
	return lastErr
}

// routeSpanNames are the per-step route-decision span services,
// precomputed so the hot path concatenates nothing.
var routeSpanNames = func() (n [int(wire.StepDone) + 1]string) {
	for s := wire.Step(0); s <= wire.StepDone; s++ {
		n[s] = "route/" + s.String()
	}
	return
}()

// routeSpan records one stats-driven routing decision: which replica
// (Host) was chosen for which frame at which step. Like every span it is
// gated on TraceSpans and sinks into the worker's local recorder.
func (w *Worker) routeSpan(step wire.Step, addr string, clientID uint32, frameNo uint64) {
	if !w.cfg.TraceSpans {
		return
	}
	at := time.Duration(time.Now().UnixMicro()) * time.Microsecond
	w.cfg.Spans.Record(obs.Span{
		Service:   routeSpanNames[step],
		Host:      addr,
		Step:      step,
		ClientID:  clientID,
		FrameNo:   frameNo,
		EnqueueAt: at,
		StartAt:   at,
		EndAt:     at,
		Outcome:   obs.OutcomeOK,
	})
}

// State-fetch RPC wiring (matching -> sift in the stateful pipeline).

// FetchMethod is the RPC method name for sift state fetches.
const FetchMethod = "sift.fetch"

func stateFetchHandler(s *core.SIFT) rpc.Handler {
	return func(method string, body []byte) ([]byte, error) {
		if method != FetchMethod {
			return nil, fmt.Errorf("agent: unknown method %q", method)
		}
		if len(body) != 12 {
			return nil, errors.New("agent: bad fetch request")
		}
		clientID := binary.BigEndian.Uint32(body)
		frameNo := binary.BigEndian.Uint64(body[4:])
		feats, err := s.Fetch(clientID, frameNo)
		if err != nil {
			return nil, err
		}
		return (&core.Payload{Features: feats}).Encode(), nil
	}
}

// RPCStateFetcherContext returns a core.StateFetcher that queries a sift
// worker's state RPC endpoint — matching's half of the dependency loop.
// Every fetch aborts when ctx is cancelled, in addition to the per-call
// timeout, so a matching worker shutting down mid-fetch (or a dead sift
// peer) releases its processing goroutine immediately instead of riding
// out the full timeout.
func RPCStateFetcherContext(ctx context.Context, addr string, timeout time.Duration) core.StateFetcher {
	client := rpc.Dial(addr, timeout)
	return func(clientID uint32, frameNo uint64) (*core.Features, error) {
		req := make([]byte, 12)
		binary.BigEndian.PutUint32(req, clientID)
		binary.BigEndian.PutUint64(req[4:], frameNo)
		resp, err := client.Call(ctx, FetchMethod, req)
		if err != nil {
			return nil, err
		}
		p, err := core.DecodePayload(resp)
		if err != nil {
			return nil, err
		}
		if p.Features == nil {
			return nil, errors.New("agent: fetch response without features")
		}
		return p.Features, nil
	}
}

// ClientConfig configures a real-mode client that replays a frame source
// into the pipeline ingress and collects results.
type ClientConfig struct {
	ID      uint32
	FPS     int // default 30
	Ingress string
	// Network selects the transport ("udp" default, "tcp"); must match
	// the deployment's workers.
	Network string
	// NextFrame returns the payload for frame i (already encoded
	// grayscale image payload bytes).
	NextFrame func(i int) []byte
	// Obs, when set, receives the client-side live counters (frames
	// sent/delivered).
	Obs *obs.Registry
	// Log defaults to slog.Default().
	Log *slog.Logger
}

// ClientResult is one completed frame observed by the client.
type ClientResult struct {
	FrameNo    uint64
	E2E        time.Duration
	Detections []core.Detection
	// Stages carries the per-service sidecar analytics the frame
	// accumulated (queueing and processing time per stage).
	Stages []wire.StageRecord
	// Spans carries the per-frame tracing spans (present when workers run
	// with TraceSpans); convert with obs.FromWire for export.
	Spans []wire.SpanRecord
	// FastPath reports that this result was answered by the tracker-gated
	// fast path (detections come from smoothed tracks, not a fresh
	// recognition pass).
	FastPath bool
}

// Client streams frames and receives processed results.
type Client struct {
	cfg     ClientConfig
	conn    transport.Endpoint
	mu      sync.Mutex
	sentAt  map[uint64]time.Time
	results chan ClientResult
	sent    atomic.Uint64
	done    chan struct{}
	wg      sync.WaitGroup
}

// StartClient begins streaming. Results arrive on Results().
func StartClient(cfg ClientConfig) (*Client, error) {
	if cfg.NextFrame == nil {
		return nil, errors.New("agent: nil frame source")
	}
	if cfg.FPS <= 0 {
		cfg.FPS = 30
	}
	if cfg.Log == nil {
		cfg.Log = slog.Default()
	}
	c := &Client{
		cfg:     cfg,
		sentAt:  make(map[uint64]time.Time),
		results: make(chan ClientResult, 256),
		done:    make(chan struct{}),
	}
	conn, err := listenEndpoint(cfg.Network, "127.0.0.1:0", c.onResult)
	if err != nil {
		return nil, err
	}
	c.conn = conn
	c.wg.Add(1)
	go c.streamLoop()
	return c, nil
}

// Results delivers completed frames.
func (c *Client) Results() <-chan ClientResult { return c.results }

// Sent returns the number of frames emitted so far.
func (c *Client) Sent() uint64 { return c.sent.Load() }

// Close stops streaming.
func (c *Client) Close() error {
	select {
	case <-c.done:
		return nil
	default:
	}
	close(c.done)
	err := c.conn.Close()
	c.wg.Wait()
	return err
}

func (c *Client) streamLoop() {
	defer c.wg.Done()
	interval := time.Second / time.Duration(c.cfg.FPS)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	addrPort, err := netip.ParseAddrPort(c.conn.LocalAddr())
	if err != nil {
		c.cfg.Log.Warn("client addr parse", "err", err)
		return
	}
	// One envelope and one encode buffer for the whole stream: only the
	// per-frame fields change, and the buffer keeps its capacity across
	// frames (the transport does not retain it after SendToAddr).
	fr := &wire.Frame{
		ClientID:   c.cfg.ID,
		ClientAddr: addrPort,
		Step:       wire.StepPrimary,
	}
	var buf []byte
	i := 0
	for {
		select {
		case <-c.done:
			return
		case <-ticker.C:
			payload := c.cfg.NextFrame(i)
			if payload == nil {
				return
			}
			fr.FrameNo = uint64(i + 1)
			fr.CaptureMicros = uint64(time.Now().UnixMicro())
			fr.Payload = payload
			data, err := fr.AppendBinary(buf[:0])
			if err != nil {
				c.cfg.Log.Warn("marshal frame", "err", err)
				continue
			}
			buf = data
			c.mu.Lock()
			c.sentAt[fr.FrameNo] = time.Now()
			c.mu.Unlock()
			c.sent.Add(1)
			if c.cfg.Obs != nil {
				c.cfg.Obs.FramesSent.Inc()
			}
			if err := c.conn.SendToAddr(c.cfg.Ingress, data); err != nil {
				if errors.Is(err, transport.ErrClosed) {
					return // racing with Close
				}
				c.cfg.Log.Warn("send frame", "err", err)
			}
			i++
		}
	}
}

func (c *Client) onResult(data []byte, from net.Addr) {
	// No-copy decode: data is borrowed for the duration of this call
	// (transport.Handler contract) and the aliased payload never
	// escapes — DecodePayload copies every section it extracts, and the
	// stage/span slices are copied into the result below.
	var fr wire.Frame
	if err := fr.UnmarshalBinaryNoCopy(data); err != nil {
		return
	}
	c.mu.Lock()
	sent, ok := c.sentAt[fr.FrameNo]
	delete(c.sentAt, fr.FrameNo)
	c.mu.Unlock()
	if !ok {
		return
	}
	p, err := core.DecodePayload(fr.Payload)
	if err != nil {
		return
	}
	if c.cfg.Obs != nil {
		c.cfg.Obs.FramesDelivered.Inc()
	}
	res := ClientResult{
		FrameNo:    fr.FrameNo,
		E2E:        time.Since(sent),
		Detections: p.Detections,
		Stages:     append([]wire.StageRecord(nil), fr.Stages...),
		Spans:      append([]wire.SpanRecord(nil), fr.Spans...),
		FastPath:   p.FastPath,
	}
	select {
	case c.results <- res:
	default: // consumer lagging; drop oldest behaviour not needed
	}
}
