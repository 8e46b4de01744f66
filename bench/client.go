package main

import (
	"fmt"
	"net"
	"net/netip"
	"time"

	"github.com/edge-mar/scatter/internal/core"
	"github.com/edge-mar/scatter/internal/transport"
	"github.com/edge-mar/scatter/internal/wire"
)

// frameTimeout is how long a client waits for a result before the frame
// counts as failed and the next one is sent.
const frameTimeout = time.Second

// delivery is one result as the client's receive handler decoded it.
type delivery struct {
	client int
	frame  uint64
	at     time.Time // result decoded
	dets   []core.Detection
	fast   bool
	stages []wire.StageRecord
	err    error // envelope or payload did not decode
}

// loadClient is one closed-loop client: one socket, one frame in flight.
type loadClient struct {
	id    uint32
	ep    transport.Endpoint
	addr  netip.AddrPort
	pos   int    // stream position of the next frame
	frame uint64 // number of the last frame sent

	inFlight bool
	sentAt   time.Time
	clipIdx  int // clip frame of the frame in flight
	buf      []byte
	env      wire.Frame
}

// load drives every client of a workload from one goroutine.
type load struct {
	fx      *fixture
	ingress string
	clients []*loadClient
	results chan delivery
	mut     *mutator
	tr      *tracer // nil when untraced

	// Totals since the last reset.
	attempted, delivered int
	decodeErrors         int
	fastFrames           int
	recall               recall
	records              []frameRecord // traced runs only
	segRecords           int           // records[segRecords:] belong to the open segment

	// onFull, when set, sees every full-recognition result (warm-up uses
	// it to compare against the in-process reference).
	onFull func(frame uint64, dets []core.Detection)
}

// newLoad opens the client sockets. With a tracer the client endpoints
// are wrapped like the workers'.
func newLoad(fx *fixture, c *cluster, mut *mutator, tr *tracer) (*load, error) {
	l := &load{
		fx: fx, ingress: c.ingress, mut: mut, tr: tr,
		// One slot per frame that can be in flight, doubled so a result
		// arriving after its timeout never blocks a receive loop.
		results: make(chan delivery, 2*fx.wl.clients),
	}
	for i := 0; i < fx.wl.clients; i++ {
		i := i
		conn, err := transport.Listen("127.0.0.1:0", func(data []byte, _ net.Addr) { l.onResult(i, data) })
		if err != nil {
			l.Close()
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		ap, err := netip.ParseAddrPort(conn.LocalAddr())
		if err != nil {
			conn.Close()
			l.Close()
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
		var ep transport.Endpoint = conn
		if tr != nil {
			ep = &timedEndpoint{Endpoint: conn, tr: tr, from: fromClient}
		}
		l.clients = append(l.clients, &loadClient{
			id: uint32(i + 1), ep: ep, addr: ap,
			// The seed picks where in the clip's forwards-and-backwards
			// cycle the first client starts; the second is half a cycle on.
			pos: fx.start + i*(clipFrames-1),
		})
	}
	return l, nil
}

func (l *load) Close() {
	for _, c := range l.clients {
		c.ep.Close() // only ever reports the socket's close error
	}
}

// onResult runs on a client socket's receive goroutine. data is borrowed,
// so everything kept is copied before returning.
func (l *load) onResult(client int, data []byte) {
	var fr wire.Frame
	d := delivery{client: client}
	if err := fr.UnmarshalBinaryNoCopy(data); err != nil {
		d.err = err
	} else if p, err := core.DecodePayload(fr.Payload); err != nil {
		d.frame, d.err = fr.FrameNo, err
	} else {
		d.frame, d.dets, d.fast = fr.FrameNo, p.Detections, p.FastPath
		d.stages = append([]wire.StageRecord(nil), fr.Stages...)
	}
	d.at = time.Now()
	l.results <- d
}

func (l *load) reset() {
	l.attempted, l.delivered, l.decodeErrors, l.fastFrames = 0, 0, 0, 0
	l.recall = recall{}
	l.records, l.segRecords = nil, 0
}

func (l *load) send(c *loadClient) error {
	c.clipIdx = clipIndex(c.pos, clipFrames)
	c.pos++
	c.frame++
	c.sentAt = time.Now()
	c.env = wire.Frame{
		ClientID: c.id, FrameNo: c.frame, ClientAddr: c.addr, Step: wire.StepPrimary,
		CaptureMicros: uint64(c.sentAt.UnixMicro()), Payload: l.fx.payloads[c.clipIdx],
	}
	data, err := c.env.AppendBinary(c.buf[:0])
	if err != nil {
		return fmt.Errorf("encode frame: %w", err)
	}
	c.buf = data
	l.attempted++
	c.inFlight = true
	l.mut.frameSent()
	if err := c.ep.SendToAddr(l.ingress, data); err != nil {
		return fmt.Errorf("send frame: %w", err)
	}
	return nil
}

// stream runs the closed loop until the deadline, then stops sending and
// waits for the frames still in flight. The segment it returns has raw
// times; the caller calibrates and then calls closeSegment.
func (l *load) stream(until time.Time) (seg segment, err error) {
	begin := time.Now()
	cpu0 := cpuNow()
	for _, c := range l.clients {
		if err := l.send(c); err != nil {
			return seg, err
		}
	}
	timer := time.NewTimer(frameTimeout)
	defer timer.Stop()
	for {
		flying := 0
		oldest := time.Time{}
		for _, c := range l.clients {
			if c.inFlight {
				flying++
				if oldest.IsZero() || c.sentAt.Before(oldest) {
					oldest = c.sentAt
				}
			}
		}
		if flying == 0 {
			break
		}
		timer.Reset(time.Until(oldest.Add(frameTimeout)))
		select {
		case d := <-l.results:
			c := l.clients[d.client]
			if d.err != nil {
				l.decodeErrors++
			}
			if !c.inFlight || d.frame != c.frame {
				continue // a result that outlived its timeout
			}
			c.inFlight = false
			if d.err == nil {
				l.deliver(c, d, &seg)
			}
			if d.at.Before(until) {
				if err := l.send(c); err != nil {
					return seg, err
				}
			}
		case now := <-timer.C:
			for _, c := range l.clients {
				if c.inFlight && now.Sub(c.sentAt) >= frameTimeout {
					c.inFlight = false // counted as attempted, never delivered
					if now.Before(until) {
						if err := l.send(c); err != nil {
							return seg, err
						}
					}
				}
			}
		}
	}
	seg.elapsedMS = msSince(begin, time.Now())
	seg.cpuMS = float64(cpuNow()-cpu0) / 1e6
	return seg, nil
}

// closeSegment stamps the segment's speed on the frames traced in it.
func (l *load) closeSegment(speed float64) {
	for i := l.segRecords; i < len(l.records); i++ {
		l.records[i].speed = speed
	}
	l.segRecords = len(l.records)
}

func msSince(from, to time.Time) float64 { return float64(to.Sub(from)) / 1e6 }

func (l *load) deliver(c *loadClient, d delivery, seg *segment) {
	l.delivered++
	lat := msSince(c.sentAt, d.at)
	seg.latMS = append(seg.latMS, lat)
	seg.fast = append(seg.fast, d.fast)
	if d.fast {
		l.fastFrames++
	} else {
		scale := float64(l.fx.wl.w) / analysisW
		l.recall.score(d.dets, l.fx.truth[c.clipIdx], scale)
		if l.onFull != nil {
			l.onFull(d.frame, d.dets)
		}
	}
	if l.tr != nil {
		l.records = append(l.records, frameRecord{
			key:  frameKey{c.id, d.frame},
			sent: l.tr.since(c.sentAt), done: l.tr.since(d.at),
			stages: d.stages,
		})
	}
}
