package lsh

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/edge-mar/scatter/internal/vision/parallel"
)

// ShardOf assigns a reference ID to one of shards partitions by a
// splitmix64 step of the ID. The mix spreads sequential IDs (the common
// enumeration order of reference objects) uniformly across shards, so a
// contiguous ID range never lands on one shard.
func ShardOf(id, shards int) int {
	if shards <= 1 {
		return 0
	}
	z := uint64(int64(id)) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(shards))
}

// ShardConfig parameterizes a ShardedIndex.
type ShardConfig struct {
	// Index configures every per-shard Index. All shards share the same
	// Config — in particular the same Seed, so every shard draws the
	// identical hyperplanes and a vector hashes to the same bucket key in
	// its shard as it would in a monolithic index. That is what makes the
	// scatter/gather result bit-identical to the single-index answer.
	Index Config

	Shards      int // hash-space partitions (default 4)
	Replication int // replicas per shard (default 1)

	// Workers bounds the scatter fan-out across shards. Zero uses
	// GOMAXPROCS; one forces the serial path. Results are identical at
	// any setting.
	Workers int
}

func (c ShardConfig) withDefaults() ShardConfig {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Replication <= 0 {
		c.Replication = 1
	}
	return c
}

// ShardStats counts scatter/gather activity on a ShardedIndex.
type ShardStats struct {
	Queries      uint64 // gather operations
	ShardQueries uint64 // per-shard fan-out legs issued
}

// topology is the swappable shard layout: replicas[s][r] is replica r of
// shard s. Every Index in one topology is built from the same Config.
type topology struct {
	replicas [][]*Index
	epoch    uint64 // bumped on every Resize; part of the layout signature
}

// ShardedIndex partitions a reference set across independent LSH shards
// by splitmix64 of the reference ID and answers queries by scatter/gather:
// every shard ranks its own candidates and the per-shard top-k lists are
// merged under the (distance, id) total order into a global top-k.
//
// Because all shards share identical hyperplanes, the union of per-shard
// candidate sets equals the monolithic candidate set exactly, and any
// member of the global top-k is necessarily within the top-k of its own
// shard (it beats all but fewer than k items globally, hence all but
// fewer than k in its shard). The merge therefore returns bit-identical
// results to a monolithic Index over the same reference set, while each
// shard ranks only ~1/S of the candidates.
//
// It is safe for concurrent use, including Add/Remove during queries and
// Resize during both.
type ShardedIndex struct {
	cfg ShardConfig

	mu   sync.RWMutex // guards topo swaps; per-Index locks guard contents
	topo *topology

	picker  atomic.Pointer[func(shard, replicas int) int]
	rr      atomic.Uint64
	queries atomic.Uint64
	legs    atomic.Uint64
}

// NewSharded creates an empty sharded index: Shards × Replication
// per-shard indexes, all built from the identical cfg.Index.
func NewSharded(cfg ShardConfig) *ShardedIndex {
	cfg = cfg.withDefaults()
	sx := &ShardedIndex{cfg: cfg}
	sx.topo = sx.buildTopology(cfg.Shards, 1)
	return sx
}

// NewShardedFrom builds a sharded index holding exactly the contents of
// src, partitioned into cfg.Shards shards. cfg.Index is ignored: the
// shards inherit src's configuration so hyperplanes (and therefore
// bucket keys) match the source index bit for bit.
func NewShardedFrom(src *Index, cfg ShardConfig) *ShardedIndex {
	cfg = cfg.withDefaults()
	cfg.Index = src.Config()
	sx := &ShardedIndex{cfg: cfg}
	sx.topo = sx.buildTopology(cfg.Shards, 1)
	src.mu.RLock()
	src.eachLocked(func(id int, v []float32) {
		sx.addLocked(sx.topo, id, v)
	})
	src.mu.RUnlock()
	return sx
}

func (sx *ShardedIndex) buildTopology(shards int, epoch uint64) *topology {
	topo := &topology{replicas: make([][]*Index, shards), epoch: epoch}
	for s := range topo.replicas {
		reps := make([]*Index, sx.cfg.Replication)
		for r := range reps {
			reps[r] = New(sx.cfg.Index)
		}
		topo.replicas[s] = reps
	}
	return topo
}

// addLocked inserts id into every replica of its shard in topo. Callers
// must prevent a concurrent topology swap (hold sx.mu or own topo).
func (sx *ShardedIndex) addLocked(topo *topology, id int, v []float32) {
	for _, ix := range topo.replicas[ShardOf(id, len(topo.replicas))] {
		ix.Add(id, v)
	}
}

// Replica returns one replica index of one shard — the partition a
// shard server hands to the serving layer when this process hosts only
// that shard. It panics on out-of-range coordinates.
func (sx *ShardedIndex) Replica(shard, replica int) *Index {
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	return sx.topo.replicas[shard][replica]
}

// Shards returns the current number of shards.
func (sx *ShardedIndex) Shards() int {
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	return len(sx.topo.replicas)
}

// Replication returns the replicas kept per shard.
func (sx *ShardedIndex) Replication() int { return sx.cfg.Replication }

// SetPreRank retunes the Hamming pre-ranking budget on every replica of
// every shard (see Config.PreRank), and records it in the config future
// topologies are built from, so a later Resize keeps the setting. Note
// the recall contract is per shard: each shard exactly re-ranks its own
// top PreRank·k, so the gather sees at least as many exactly-ranked
// candidates as a monolithic index at the same setting — sharded recall
// is never below monolithic recall. Zero restores exact mode, which is
// bit-identical to the monolithic index.
func (sx *ShardedIndex) SetPreRank(n int) {
	if n < 0 {
		n = 0
	}
	sx.mu.Lock()
	defer sx.mu.Unlock()
	sx.cfg.Index.PreRank = n
	for _, reps := range sx.topo.replicas {
		for _, ix := range reps {
			ix.SetPreRank(n)
		}
	}
}

// Tables returns the number of hash tables — identical in every shard.
func (sx *ShardedIndex) Tables() int { return sx.anyIndex().Tables() }

// Hash returns the bucket key of v in the given table. All shards share
// the same hyperplanes, so any replica answers for the whole index.
func (sx *ShardedIndex) Hash(table int, v []float32) uint64 {
	return sx.anyIndex().Hash(table, v)
}

func (sx *ShardedIndex) anyIndex() *Index {
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	return sx.topo.replicas[0][0]
}

// LayoutSignature fingerprints the shard layout: shard count, replication
// factor, and the resize epoch. Recognition-cache keys fold it in so an
// entry cached under one layout can never be served under another.
func (sx *ShardedIndex) LayoutSignature() uint64 {
	sx.mu.RLock()
	shards, epoch := len(sx.topo.replicas), sx.topo.epoch
	sx.mu.RUnlock()
	z := uint64(shards)<<40 ^ uint64(sx.cfg.Replication)<<32 ^ epoch
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SetReplicaPicker installs the per-shard replica chooser used by the
// scatter path — typically backed by internal/obs/routestats health
// windows so degraded replicas shed query load. A nil picker, an index
// out of range, or a negative return falls back to round-robin.
func (sx *ShardedIndex) SetReplicaPicker(pick func(shard, replicas int) int) {
	if pick == nil {
		sx.picker.Store(nil)
		return
	}
	sx.picker.Store(&pick)
}

// replica chooses which replica of shard s serves this query.
func (sx *ShardedIndex) replica(reps []*Index, s int) *Index {
	if len(reps) == 1 {
		return reps[0]
	}
	if p := sx.picker.Load(); p != nil {
		if i := (*p)(s, len(reps)); i >= 0 && i < len(reps) {
			return reps[i]
		}
	}
	return reps[int(sx.rr.Add(1))%len(reps)]
}

// Stats returns cumulative scatter/gather counters.
func (sx *ShardedIndex) Stats() ShardStats {
	return ShardStats{
		Queries:      sx.queries.Load(),
		ShardQueries: sx.legs.Load(),
	}
}

// Add stores vector v under id in every replica of its shard, replacing
// any previous vector with the same id. Online: no rebuild, concurrent
// queries keep answering.
func (sx *ShardedIndex) Add(id int, v []float32) {
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	sx.addLocked(sx.topo, id, v)
}

// Remove deletes id from its shard. Removing an absent id is a no-op.
func (sx *ShardedIndex) Remove(id int) {
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	for _, ix := range sx.topo.replicas[ShardOf(id, len(sx.topo.replicas))] {
		ix.Remove(id)
	}
}

// Len returns the number of stored items (summed over shards; replicas
// within a shard hold identical contents).
func (sx *ShardedIndex) Len() int {
	sx.mu.RLock()
	defer sx.mu.RUnlock()
	n := 0
	for _, reps := range sx.topo.replicas {
		n += reps[0].Len()
	}
	return n
}

// Resize rebalances the reference set onto a new shard count without
// losing concurrent queries: the new topology is fully populated before
// a single pointer swap makes it live. Add/Remove are held out for the
// duration (they take the read side of the topology lock), so no ID is
// orphaned or duplicated across the swap. Resize to the current count is
// a no-op.
func (sx *ShardedIndex) Resize(shards int) {
	if shards <= 0 {
		panic(fmt.Sprintf("lsh: invalid shard count %d", shards))
	}
	sx.mu.Lock()
	defer sx.mu.Unlock()
	if shards == len(sx.topo.replicas) {
		return
	}
	next := sx.buildTopology(shards, sx.topo.epoch+1)
	for _, reps := range sx.topo.replicas {
		src := reps[0]
		src.mu.RLock()
		src.eachLocked(func(id int, v []float32) {
			sx.addLocked(next, id, v)
		})
		src.mu.RUnlock()
	}
	sx.topo = next
}

// snapshot pins the current topology for one gather operation.
func (sx *ShardedIndex) snapshot() *topology {
	sx.mu.RLock()
	topo := sx.topo
	sx.mu.RUnlock()
	return topo
}

// listsPool recycles the per-gather slice of per-shard result lists.
var listsPool parallel.SlicePool[[]Neighbor]

// Query returns up to k approximate nearest neighbours of v: the query
// is scattered to one replica of every shard, each shard ranks only its
// own candidates, and the per-shard top-k lists are merged into a global
// top-k. Bit-identical to Index.Query over the same reference set.
func (sx *ShardedIndex) Query(v []float32, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	topo := sx.snapshot()
	ns := len(topo.replicas)
	sx.queries.Add(1)
	sx.legs.Add(uint64(ns))
	lists := listsPool.Get(ns)
	parallel.For(sx.cfg.Workers, ns, 1, func(_, start, end int) {
		for s := start; s < end; s++ {
			lists[s] = sx.replica(topo.replicas[s], s).Query(v, k)
		}
	})
	out := MergeNeighbors(make([]Neighbor, 0, k), lists, k)
	listsPool.Put(lists)
	return out
}

// ExactNN returns the true k nearest neighbours by brute force, gathered
// across shards. Identical to Index.ExactNN on the same reference set.
func (sx *ShardedIndex) ExactNN(v []float32, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	topo := sx.snapshot()
	ns := len(topo.replicas)
	lists := listsPool.Get(ns)
	parallel.For(sx.cfg.Workers, ns, 1, func(_, start, end int) {
		for s := start; s < end; s++ {
			lists[s] = sx.replica(topo.replicas[s], s).ExactNN(v, k)
		}
	})
	out := MergeNeighbors(make([]Neighbor, 0, k), lists, k)
	listsPool.Put(lists)
	return out
}

// mergeCursorPool recycles the k-way merge cursor scratch for fan-outs
// wider than the stack cursor array.
var mergeCursorPool parallel.SlicePool[int]

// mergeStackCursors is the fan-out width served by a stack-allocated
// cursor array. Deployments rarely exceed 16 shards; wider gathers fall
// back to the pool.
const mergeStackCursors = 16

// MergeNeighbors merges per-shard top-k lists — each already ordered by
// (distance, id) — into a single top-k in the same order, appending into
// dst (reset to length zero first). IDs are unique across shards, so the
// comparator is a strict total order and the merge is deterministic
// regardless of list order. Up to mergeStackCursors lists the cursor
// scratch lives on the stack, so when dst has capacity k the merge does
// not allocate at all — the gather hot path stays allocation-free in
// steady state.
func MergeNeighbors(dst []Neighbor, lists [][]Neighbor, k int) []Neighbor {
	dst = dst[:0]
	if k <= 0 {
		return dst
	}
	if len(lists) <= mergeStackCursors {
		var curArr [mergeStackCursors]int
		return mergeInto(dst, lists, k, curArr[:len(lists)])
	}
	cur := mergeCursorPool.Get(len(lists))
	dst = mergeInto(dst, lists, k, cur)
	mergeCursorPool.Put(cur)
	return dst
}

func mergeInto(dst []Neighbor, lists [][]Neighbor, k int, cur []int) []Neighbor {
	for len(dst) < k {
		best := -1
		for i, l := range lists {
			if cur[i] >= len(l) {
				continue
			}
			if best < 0 || neighborLess(l[cur[i]], lists[best][cur[best]]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		dst = append(dst, lists[best][cur[best]])
		cur[best]++
	}
	return dst
}

// GetNeighborScratch returns a pooled, zeroed []Neighbor of length n for
// gather-merge staging; return it with PutNeighborScratch.
func GetNeighborScratch(n int) []Neighbor { return neighborPool.Get(n) }

// PutNeighborScratch returns a buffer obtained from GetNeighborScratch.
func PutNeighborScratch(s []Neighbor) { neighborPool.Put(s) }
