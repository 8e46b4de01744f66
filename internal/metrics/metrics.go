// Package metrics computes the QoS statistics the paper reports for every
// experiment: frame rate (successfully analyzed frames per second),
// end-to-end latency (input to final processed frame), per-service
// processing latency, jitter (Δ inter-frame receive time), success rate,
// and per-service queue drop ratios (scAtteR++ sidecar analytics).
package metrics

import (
	"math"
	"sort"
	"time"
)

// DropReason classifies why a frame failed to complete the pipeline.
type DropReason string

// Drop reasons observed across the experiments.
const (
	DropBusy      DropReason = "busy"      // service busy, no queue (scAtteR)
	DropLoss      DropReason = "loss"      // network loss
	DropTimeout   DropReason = "timeout"   // dependency wait timed out
	DropThreshold DropReason = "threshold" // sidecar latency threshold exceeded
	DropOverflow  DropReason = "overflow"  // sidecar queue full
	DropAdmission DropReason = "admission" // refused by admission control at ingress
)

// Collector accumulates per-run statistics. It is not safe for concurrent
// use; simulation runs are single-threaded and the real runtime keeps one
// collector per goroutine, merging at the end.
type Collector struct {
	sent      uint64
	delivered uint64
	dropped   map[DropReason]uint64

	e2e       []time.Duration
	lastE2E   map[uint32]time.Duration // per client, for jitter
	jitterAbs []time.Duration

	stateAllocFailures uint64

	services map[string]*ServiceStats
}

// ServiceStats aggregates one service's sidecar/processing counters.
type ServiceStats struct {
	Processed uint64
	Dropped   uint64 // dropped at this service's ingress (distress: busy/overflow/threshold)
	Arrived   uint64 // ingress requests observed (processed + dropped + queued at end)
	// AdmissionDropped counts frames refused by admission control —
	// deliberate control actions, kept out of Dropped so the distress
	// drop ratio recovers while rejection holds.
	AdmissionDropped uint64
	queueSum         time.Duration
	procSum          time.Duration
	arriveTime       []time.Duration // ingress timestamps, for per-service FPS
	dropTime         []time.Duration // ingress-drop timestamps, for drop-ratio series
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		dropped:  make(map[DropReason]uint64),
		lastE2E:  make(map[uint32]time.Duration),
		services: make(map[string]*ServiceStats),
	}
}

func (c *Collector) service(name string) *ServiceStats {
	s, ok := c.services[name]
	if !ok {
		s = &ServiceStats{}
		c.services[name] = s
	}
	return s
}

// FrameSent records a client emitting a frame at virtual time t.
func (c *Collector) FrameSent() { c.sent++ }

// FrameDelivered records the client receiving its processed frame:
// sentAt/receivedAt are virtual capture/delivery times. Jitter is the
// paper's Δ inter-frame receive time, computed as in RFC 3550: the
// variation between consecutive frames' transit (end-to-end) times for
// one client, which a perfectly stable pipeline drives to zero even when
// frames are lost in between.
func (c *Collector) FrameDelivered(clientID uint32, sentAt, receivedAt time.Duration) {
	c.delivered++
	e2e := receivedAt - sentAt
	c.e2e = append(c.e2e, e2e)
	if prev, ok := c.lastE2E[clientID]; ok {
		d := e2e - prev
		if d < 0 {
			d = -d
		}
		c.jitterAbs = append(c.jitterAbs, d)
	}
	c.lastE2E[clientID] = e2e
}

// FrameDropped records a frame lost for the given reason.
func (c *Collector) FrameDropped(reason DropReason) { c.dropped[reason]++ }

// StateAllocFailed records sift failing to reserve memory for a frame's
// state on a memory-constrained host. The frame itself is not terminal
// here — it will later miss at matching — so this is a separate signal,
// the condition the paper flags for memory-constrained edge hardware.
func (c *Collector) StateAllocFailed() { c.stateAllocFailures++ }

// ServiceArrived records an ingress request at a service.
func (c *Collector) ServiceArrived(name string, at time.Duration) {
	s := c.service(name)
	s.Arrived++
	s.arriveTime = append(s.arriveTime, at)
}

// ServiceProcessed records a completed service execution with its queue
// wait and processing time.
func (c *Collector) ServiceProcessed(name string, queue, proc time.Duration) {
	s := c.service(name)
	s.Processed++
	s.queueSum += queue
	s.procSum += proc
}

// ServiceAdmissionDropped records a request refused by admission control
// at a service ingress. Deliberately not folded into Dropped: admission
// drops are the controller's own doing, and counting them as distress
// would keep the drop ratio pinned high and defeat recovery hysteresis.
func (c *Collector) ServiceAdmissionDropped(name string) { c.service(name).AdmissionDropped++ }

// ServiceAdmissionDrops returns a service's cumulative admission-control
// refusals. Unknown services return zero.
func (c *Collector) ServiceAdmissionDrops(name string) uint64 {
	s, ok := c.services[name]
	if !ok {
		return 0
	}
	return s.AdmissionDropped
}

// ServiceCounters returns a service's cumulative ingress/processing
// counters — the predefined hook an application-aware orchestrator polls
// (the paper's §6 proposal). Unknown services return zeros.
func (c *Collector) ServiceCounters(name string) (arrived, processed, dropped uint64) {
	s, ok := c.services[name]
	if !ok {
		return 0, 0, 0
	}
	return s.Arrived, s.Processed, s.Dropped
}

// ServiceDroppedAt records an ingress drop with its timestamp so drop-
// ratio time series (Figures 8 and 12) can be derived.
func (c *Collector) ServiceDroppedAt(name string, at time.Duration) {
	s := c.service(name)
	s.Dropped++
	s.dropTime = append(s.dropTime, at)
}

// MachineUsage is a utilization snapshot of one machine. CPUUtil/GPUUtil
// are cumulative (mean slot-busy fraction since the start of the run);
// the busy integrals and slot counts let a control loop window them —
// utilization over one period is Δbusy / (slots × Δt) — so a policy sees
// the last interval instead of the whole history.
type MachineUsage struct {
	Machine  string
	CPUUtil  float64 // normalized to total cores, [0, 1], since run start
	GPUUtil  float64
	MemBytes int64 // current memory reservation
	MemPeak  int64
	// CPUBusy/GPUBusy are the cumulative slot-busy integrals backing the
	// utilization fractions; CPUSlots/GPUSlots the device capacities.
	CPUBusy  time.Duration
	GPUBusy  time.Duration
	CPUSlots int
	GPUSlots int
}

// ServiceSummary is the per-service view in a Summary.
type ServiceSummary struct {
	Processed  uint64
	Dropped    uint64
	Arrived    uint64
	DropRatio  float64 // dropped / arrived
	MeanQueue  time.Duration
	MeanProc   time.Duration
	IngressFPS float64 // arrivals per second over the run
}

// Summary is the digest of one experiment run.
type Summary struct {
	Duration       time.Duration
	Clients        int
	FramesSent     uint64
	FramesOK       uint64
	Drops          map[DropReason]uint64
	SuccessRate    float64
	FPSPerClient   float64 // delivered frames / s / client
	FPSAggregate   float64 // delivered frames / s
	E2EMean        time.Duration
	E2EP50         time.Duration
	E2EP95         time.Duration
	JitterMean     time.Duration
	Services       map[string]ServiceSummary
	Machines       []MachineUsage
	ServiceLatMean time.Duration // mean over services of MeanProc (paper's "service latency")
	// StateAllocFailures counts sift state reservations rejected by the
	// host's memory capacity.
	StateAllocFailures uint64
}

// Summarize produces the run digest. duration is the experiment length in
// virtual time; clients the number of concurrent clients; machines an
// optional set of utilization snapshots.
func (c *Collector) Summarize(duration time.Duration, clients int, machines []MachineUsage) Summary {
	s := Summary{
		Duration:   duration,
		Clients:    clients,
		FramesSent: c.sent,
		FramesOK:   c.delivered,
		Drops:      make(map[DropReason]uint64, len(c.dropped)),
		Services:   make(map[string]ServiceSummary, len(c.services)),
		Machines:   machines,
	}
	for k, v := range c.dropped {
		s.Drops[k] = v
	}
	if c.sent > 0 {
		s.SuccessRate = float64(c.delivered) / float64(c.sent)
	}
	if duration > 0 {
		s.FPSAggregate = float64(c.delivered) / duration.Seconds()
		if clients > 0 {
			s.FPSPerClient = s.FPSAggregate / float64(clients)
		}
	}
	s.E2EMean = meanDuration(c.e2e)
	s.E2EP50 = percentileDuration(c.e2e, 0.50)
	s.E2EP95 = percentileDuration(c.e2e, 0.95)
	s.JitterMean = meanDuration(c.jitterAbs)
	var procSum time.Duration
	nSvc := 0
	for name, st := range c.services {
		sum := ServiceSummary{
			Processed: st.Processed,
			Dropped:   st.Dropped,
			Arrived:   st.Arrived,
		}
		if st.Arrived > 0 {
			sum.DropRatio = float64(st.Dropped) / float64(st.Arrived)
		}
		if st.Processed > 0 {
			sum.MeanQueue = st.queueSum / time.Duration(st.Processed)
			sum.MeanProc = st.procSum / time.Duration(st.Processed)
			procSum += sum.MeanProc
			nSvc++
		}
		if duration > 0 {
			sum.IngressFPS = float64(st.Arrived) / duration.Seconds()
		}
		s.Services[name] = sum
	}
	if nSvc > 0 {
		s.ServiceLatMean = procSum / time.Duration(nSvc)
	}
	s.StateAllocFailures = c.stateAllocFailures
	return s
}

// IngressFPSSeries returns per-interval ingress FPS for one service —
// the time series Figures 8 and 12 plot. Intervals partition [0, duration).
func (c *Collector) IngressFPSSeries(name string, duration, interval time.Duration) []float64 {
	if interval <= 0 || duration <= 0 {
		return nil
	}
	n := int((duration + interval - 1) / interval)
	out := make([]float64, n)
	st, ok := c.services[name]
	if !ok {
		return out
	}
	for _, at := range st.arriveTime {
		idx := int(at / interval)
		if idx >= 0 && idx < n {
			out[idx]++
		}
	}
	sec := interval.Seconds()
	for i := range out {
		out[i] /= sec
	}
	return out
}

// DropRatioSeries returns the per-interval fraction of ingress requests
// dropped at one service — the sidecar analytics series of Figures 8/12.
// Intervals with no arrivals report zero.
func (c *Collector) DropRatioSeries(name string, duration, interval time.Duration) []float64 {
	if interval <= 0 || duration <= 0 {
		return nil
	}
	n := int((duration + interval - 1) / interval)
	ratios := make([]float64, n)
	st, ok := c.services[name]
	if !ok {
		return ratios
	}
	arrivals := make([]float64, n)
	drops := make([]float64, n)
	for _, at := range st.arriveTime {
		if idx := int(at / interval); idx >= 0 && idx < n {
			arrivals[idx]++
		}
	}
	for _, at := range st.dropTime {
		if idx := int(at / interval); idx >= 0 && idx < n {
			drops[idx]++
		}
	}
	for i := range ratios {
		if arrivals[i] > 0 {
			ratios[i] = drops[i] / arrivals[i]
		}
	}
	return ratios
}

func meanDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// percentileDuration computes the p-quantile (p in [0, 1]) with linear
// interpolation between closest ranks — the same estimator NumPy's
// default and most monitoring systems use, so a percentile is exact on
// rank boundaries and interpolated between samples rather than snapped to
// the nearest lower observation.
func percentileDuration(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	rank := p * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo])+0.5)
}
