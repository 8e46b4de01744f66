// Shard scatter/gather: the sidecar-side fan-out that lets the lsh step
// query a reference database partitioned across remote index shards.
//
// A ShardServer owns one shard's lsh.Index partition and answers shard
// query frames over the data-plane transport. A ShardGather is the
// client half: it implements core.NNIndex, scattering each query to one
// replica of every shard, gathering the per-shard top-k lists, and
// merging them under the (distance, id) total order — bit-identical to
// a monolithic index over the same reference set when every shard
// answers. Shards that miss the gather window are dropped and counted;
// the gather proceeds when at least Quorum shards answered, so one slow
// or dead shard replica degrades recall instead of stalling the
// pipeline.
package agent

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/edge-mar/scatter/internal/obs"
	"github.com/edge-mar/scatter/internal/obs/routestats"
	"github.com/edge-mar/scatter/internal/transport"
	"github.com/edge-mar/scatter/internal/vision/lsh"
	"github.com/edge-mar/scatter/internal/vision/parallel"
	"github.com/edge-mar/scatter/internal/wire"
)

// ShardServerConfig configures one shard's serving side.
type ShardServerConfig struct {
	// Index is the shard's partition of the reference database.
	Index *lsh.Index
	// Shard is this server's shard number; queries addressed to another
	// shard are rejected (a misrouted query must not silently answer
	// from the wrong partition).
	Shard int
	// ListenAddr is the transport bind address ("127.0.0.1:0" for an
	// ephemeral test port).
	ListenAddr string
	// Network selects the transport ("udp" default, "tcp").
	Network string
}

// ShardServerStats counts one shard server's activity.
type ShardServerStats struct {
	Queries   uint64 // well-formed queries answered
	Rejected  uint64 // malformed or misrouted queries dropped
	SendError uint64 // result frames that failed to send
}

// ShardServer serves one shard of the reference database.
type ShardServer struct {
	cfg ShardServerConfig
	// conn holds an endpointBox, published atomically because the
	// transport's read loop can deliver a query before StartShardServer
	// returns.
	conn atomic.Value

	queries   atomic.Uint64
	rejected  atomic.Uint64
	sendError atomic.Uint64
}

// shard codec scratch pools: decode vectors, staged wire neighbors, and
// encode buffers all round-trip through pools so a steady query stream
// allocates only what escapes to the caller.
var (
	shardVecPool      parallel.SlicePool[float32]
	shardNeighborPool parallel.SlicePool[wire.ShardNeighbor]
	shardBufPool      sync.Pool // *[]byte encode scratch
)

func shardBufGet() []byte {
	if v, _ := shardBufPool.Get().(*[]byte); v != nil {
		return (*v)[:0]
	}
	return nil
}

func shardBufPut(b []byte) {
	if cap(b) == 0 {
		return
	}
	shardBufPool.Put(&b)
}

// StartShardServer binds the transport and begins answering shard
// queries.
func StartShardServer(cfg ShardServerConfig) (*ShardServer, error) {
	if cfg.Index == nil {
		return nil, fmt.Errorf("agent: shard server needs an index")
	}
	if cfg.Shard < 0 {
		return nil, fmt.Errorf("agent: negative shard number %d", cfg.Shard)
	}
	s := &ShardServer{cfg: cfg}
	conn, err := listenEndpoint(cfg.Network, cfg.ListenAddr, s.onMessage)
	if err != nil {
		return nil, err
	}
	s.conn.Store(endpointBox{conn})
	return s, nil
}

func (s *ShardServer) endpoint() transport.Endpoint {
	box, _ := s.conn.Load().(endpointBox)
	return box.ep
}

// Addr returns the bound transport address.
func (s *ShardServer) Addr() string { return s.endpoint().LocalAddr() }

// Stats returns cumulative counters.
func (s *ShardServer) Stats() ShardServerStats {
	return ShardServerStats{
		Queries:   s.queries.Load(),
		Rejected:  s.rejected.Load(),
		SendError: s.sendError.Load(),
	}
}

// Close shuts the transport down.
func (s *ShardServer) Close() error { return s.endpoint().Close() }

func (s *ShardServer) onMessage(data []byte, from net.Addr) {
	if !wire.IsShardQuery(data) {
		return
	}
	ep := s.endpoint()
	if ep == nil { // arrived before construction finished
		s.rejected.Add(1)
		return
	}
	vecScratch := shardVecPool.Get(s.cfg.Index.Dim())
	queryID, shard, k, flags, vec, ok := wire.ParseShardQuery(data, vecScratch)
	if !ok || shard != s.cfg.Shard || len(vec) != s.cfg.Index.Dim() {
		s.rejected.Add(1)
		shardVecPool.Put(vecScratch)
		return
	}
	var neighbors []lsh.Neighbor
	if flags&wire.ShardQueryExact != 0 {
		neighbors = s.cfg.Index.ExactNN(vec, k)
	} else {
		neighbors = s.cfg.Index.Query(vec, k)
	}
	staged := shardNeighborPool.Get(len(neighbors))
	for i, n := range neighbors {
		staged[i] = wire.ShardNeighbor{ID: int32(n.ID), Dist: n.Dist}
	}
	buf := wire.AppendShardResult(shardBufGet(), queryID, shard, s.cfg.Index.Len(), staged)
	if err := ep.SendToAddr(from.String(), buf); err != nil {
		s.sendError.Add(1)
	} else {
		s.queries.Add(1)
	}
	shardBufPut(buf)
	shardNeighborPool.Put(staged)
	shardVecPool.Put(vecScratch)
}

// ShardGatherConfig configures the scatter/gather client.
type ShardGatherConfig struct {
	// Shards lists the replica addresses of every shard:
	// Shards[s] holds the interchangeable replicas of shard s. Every
	// shard needs at least one address.
	Shards [][]string
	// Network selects the transport ("udp" default, "tcp").
	Network string
	// GatherTimeout bounds how long a gather waits for shard responses
	// (default 150ms).
	GatherTimeout time.Duration
	// Quorum is the minimum number of shards that must answer before a
	// partial gather may proceed. Zero defaults to all shards — strict
	// bit-identity with the monolithic index.
	Quorum int
	// Health optionally configures the per-shard routestats windows used
	// to pick among shard replicas. Leaving it zero still builds the
	// windows with library defaults; replica picks fall back to
	// round-robin until the windows warm.
	Health routestats.Config
}

// ShardGatherStats counts the gather client's activity.
type ShardGatherStats struct {
	FanOuts          uint64 // per-shard query legs sent
	Gathers          uint64 // gathers that delivered a result (full or partial)
	PartialGathers   uint64 // gathers that proceeded with >=Quorum but < all shards
	DroppedShards    uint64 // shard legs that missed the gather window
	BelowQuorum      uint64 // gathers abandoned with fewer than Quorum shards
	SendErrors       uint64 // query legs that failed to send
	GatherWaitMicros uint64 // cumulative wall time spent waiting on gathers
}

// gatherPending is one in-flight scatter: a slot per shard plus the
// bookkeeping to decide full/partial/abandoned.
type gatherPending struct {
	mu       sync.Mutex
	lists    [][]lsh.Neighbor // per shard; nil until that shard answers
	sentAt   []time.Time
	shardLen []int
	got      int
	done     chan struct{}
}

// ShardGather scatters nearest-neighbour queries across remote index
// shards and merges the gathered top-k lists. It implements
// core.NNIndex.
type ShardGather struct {
	cfg    ShardGatherConfig
	conn   transport.Endpoint
	health []*routestats.Table // one table per shard, keyed at wire.StepLSH
	rr     atomic.Uint64
	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]*gatherPending

	shardLens []atomic.Int64 // last reported item count per shard

	fanOuts     atomic.Uint64
	gathers     atomic.Uint64
	partials    atomic.Uint64
	dropped     atomic.Uint64
	belowQuorum atomic.Uint64
	sendErrors  atomic.Uint64
	waitMicros  atomic.Uint64
}

// NewShardGather opens the gather client. It binds its own ephemeral
// transport endpoint for result frames.
func NewShardGather(cfg ShardGatherConfig) (*ShardGather, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("agent: shard gather needs at least one shard")
	}
	for s, reps := range cfg.Shards {
		if len(reps) == 0 {
			return nil, fmt.Errorf("agent: shard %d has no replicas", s)
		}
	}
	if cfg.GatherTimeout <= 0 {
		cfg.GatherTimeout = 150 * time.Millisecond
	}
	if cfg.Quorum <= 0 || cfg.Quorum > len(cfg.Shards) {
		cfg.Quorum = len(cfg.Shards)
	}
	g := &ShardGather{
		cfg:       cfg,
		pending:   make(map[uint64]*gatherPending),
		shardLens: make([]atomic.Int64, len(cfg.Shards)),
	}
	for _, reps := range cfg.Shards {
		t := routestats.New(cfg.Health)
		t.SetReplicas(wire.StepLSH, reps)
		g.health = append(g.health, t)
	}
	conn, err := listenEndpoint(cfg.Network, "127.0.0.1:0", g.onResult)
	if err != nil {
		return nil, err
	}
	g.conn = conn
	return g, nil
}

// Close shuts the transport down.
func (g *ShardGather) Close() error { return g.conn.Close() }

// Shards returns the configured shard count.
func (g *ShardGather) Shards() int { return len(g.cfg.Shards) }

// Len returns the reference-set size as last reported by the shards
// (result frames carry each shard's item count). Zero until the first
// gather completes.
func (g *ShardGather) Len() int {
	var n int64
	for i := range g.shardLens {
		n += g.shardLens[i].Load()
	}
	return int(n)
}

// Stats returns cumulative gather counters.
func (g *ShardGather) Stats() ShardGatherStats {
	return ShardGatherStats{
		FanOuts:          g.fanOuts.Load(),
		Gathers:          g.gathers.Load(),
		PartialGathers:   g.partials.Load(),
		DroppedShards:    g.dropped.Load(),
		BelowQuorum:      g.belowQuorum.Load(),
		SendErrors:       g.sendErrors.Load(),
		GatherWaitMicros: g.waitMicros.Load(),
	}
}

// Digest adapts the gather counters to the obs scatter_shard_* family;
// install with Registry.SetShardSource.
func (g *ShardGather) Digest() obs.ShardDigest {
	st := g.Stats()
	replication := 0
	for _, reps := range g.cfg.Shards {
		if len(reps) > replication {
			replication = len(reps)
		}
	}
	return obs.ShardDigest{
		Shards:           len(g.cfg.Shards),
		Replication:      replication,
		FanOuts:          st.FanOuts,
		Gathers:          st.Gathers,
		PartialGathers:   st.PartialGathers,
		DroppedShards:    st.DroppedShards,
		BelowQuorum:      st.BelowQuorum,
		GatherWaitMicros: st.GatherWaitMicros,
	}
}

// pickReplica chooses a replica address for one shard: the routestats
// window when it is warm, deterministic round-robin otherwise.
func (g *ShardGather) pickReplica(shard int) (string, *routestats.Replica) {
	reps := g.cfg.Shards[shard]
	if rep, _, ok := g.health[shard].Pick(wire.StepLSH); ok {
		return rep.Addr(), rep
	}
	addr := reps[int(g.rr.Add(1))%len(reps)]
	return addr, g.health[shard].Find(wire.StepLSH, addr)
}

// scatter sends one query to one replica of every shard and returns the
// pending gather.
func (g *ShardGather) scatter(v []float32, k int, flags byte) (uint64, *gatherPending) {
	ns := len(g.cfg.Shards)
	id := g.nextID.Add(1)
	p := &gatherPending{
		lists:    make([][]lsh.Neighbor, ns),
		sentAt:   make([]time.Time, ns),
		shardLen: make([]int, ns),
		done:     make(chan struct{}),
	}
	// sentAt is fully written before the pending entry is published:
	// onResult only reaches p through the map, so the g.mu hand-off
	// orders these writes before any reader.
	now := time.Now()
	for s := range p.sentAt {
		p.sentAt[s] = now
	}
	g.mu.Lock()
	g.pending[id] = p
	g.mu.Unlock()

	buf := shardBufGet()
	for s := 0; s < ns; s++ {
		addr, rep := g.pickReplica(s)
		buf = wire.AppendShardQuery(buf[:0], id, s, k, flags, v)
		if rep != nil {
			rep.Begin()
		}
		if err := g.conn.SendToAddr(addr, buf); err != nil {
			g.sendErrors.Add(1)
			if rep != nil {
				rep.OutcomeSendError()
			}
			continue
		}
		g.fanOuts.Add(1)
	}
	shardBufPut(buf)
	return id, p
}

// onResult ingests one shard's answer.
func (g *ShardGather) onResult(data []byte, from net.Addr) {
	if !wire.IsShardResult(data) {
		return
	}
	staged := shardNeighborPool.Get(wire.MaxShardK)
	queryID, shard, shardLen, ns, ok := wire.ParseShardResult(data, staged)
	if !ok || shard < 0 || shard >= len(g.cfg.Shards) {
		shardNeighborPool.Put(staged)
		return
	}
	g.mu.Lock()
	p := g.pending[queryID]
	g.mu.Unlock()
	if p == nil { // answered after the gather window closed
		g.dropped.Add(1)
		shardNeighborPool.Put(staged)
		return
	}
	p.mu.Lock()
	late := p.lists[shard] != nil
	if !late {
		list := make([]lsh.Neighbor, len(ns))
		for i, n := range ns {
			list[i] = lsh.Neighbor{ID: int(n.ID), Dist: n.Dist}
		}
		p.lists[shard] = list
		p.shardLen[shard] = shardLen
		p.got++
		if p.got == len(p.lists) {
			close(p.done)
		}
	}
	sentAt := p.sentAt[shard]
	p.mu.Unlock()
	shardNeighborPool.Put(staged)
	if late {
		return
	}
	g.shardLens[shard].Store(int64(shardLen))
	if rep := g.health[shard].Find(wire.StepLSH, from.String()); rep != nil {
		rep.Outcome(time.Since(sentAt), true)
	}
}

// gather waits for the scatter to complete and merges what arrived.
// A full gather is bit-identical to the monolithic index; a partial
// gather (>= Quorum shards) degrades recall on the missing partitions
// and is counted; below quorum the gather is abandoned and returns nil.
func (g *ShardGather) gather(id uint64, p *gatherPending, k int) []lsh.Neighbor {
	start := time.Now()
	timer := time.NewTimer(g.cfg.GatherTimeout)
	select {
	case <-p.done:
		timer.Stop()
	case <-timer.C:
	}
	g.waitMicros.Add(uint64(time.Since(start) / time.Microsecond))

	g.mu.Lock()
	delete(g.pending, id)
	g.mu.Unlock()

	p.mu.Lock()
	defer p.mu.Unlock()
	missing := uint64(len(p.lists) - p.got)
	if p.got < g.cfg.Quorum {
		g.dropped.Add(missing)
		g.belowQuorum.Add(1)
		return nil
	}
	if missing > 0 {
		g.dropped.Add(missing)
		g.partials.Add(1)
	}
	g.gathers.Add(1)
	lists := p.lists[:0]
	for _, l := range p.lists {
		if l != nil {
			lists = append(lists, l)
		}
	}
	return lsh.MergeNeighbors(make([]lsh.Neighbor, 0, k), lists, k)
}

// Query implements core.NNIndex: scatter to every shard, gather, merge.
func (g *ShardGather) Query(v []float32, k int) []lsh.Neighbor {
	if k <= 0 {
		return nil
	}
	id, p := g.scatter(v, k, 0)
	return g.gather(id, p, k)
}

// ExactNN implements core.NNIndex: the brute-force scan fans out with
// the exact flag, each shard scans its partition, and the merge of
// per-shard exact top-k lists is the global exact top-k.
func (g *ShardGather) ExactNN(v []float32, k int) []lsh.Neighbor {
	if k <= 0 {
		return nil
	}
	id, p := g.scatter(v, k, wire.ShardQueryExact)
	return g.gather(id, p, k)
}
