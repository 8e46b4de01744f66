// Package lsh implements locality-sensitive hashing for approximate
// nearest-neighbour search over Fisher vectors — scAtteR's lsh service.
// It uses random-hyperplane (signed random projection) hashing: each of
// several tables hashes a vector to a bit string of hyperplane signs, and
// queries probe the exact bucket plus optional single-bit-flip buckets
// (multi-probe) before ranking candidates by exact cosine distance.
//
// The distance kernels are laid out for the cache, not the type system:
// reference vectors live in one contiguous structure-of-arrays arena
// (vector data, squared norms, and bit-packed sign sketches in three
// dense parallel slabs indexed by slot), hyperplanes in one row-major
// matrix, and ranking does a single dot-product pass per candidate
// against norms cached at Add time. With Config.PreRank armed, ranking
// first cuts the candidate set by packed-sketch Hamming distance —
// XOR/popcount over a few words — before the exact cosine pass.
package lsh

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/edge-mar/scatter/internal/vision/parallel"
	"github.com/edge-mar/scatter/internal/vision/simd"
)

// Neighbor is a query result: a stored item and its distance to the query.
type Neighbor struct {
	ID   int
	Dist float64 // cosine distance in [0, 2]
}

// Config parameterizes an Index.
type Config struct {
	Dim    int   // vector dimensionality (required)
	Tables int   // number of hash tables (default 8)
	Bits   int   // hyperplanes per table, <= 64 (default 16)
	Probes int   // additional single-bit-flip probes per table (default 2)
	Seed   int64 // RNG seed for hyperplanes (default 1)
	// PreRank, when positive, arms bit-packed Hamming pre-ranking:
	// queries rank candidates first by Hamming distance between packed
	// sign sketches (Tables×Bits bits, XOR + popcount) and exactly
	// re-rank only the top PreRank·k by cosine distance. Zero (the
	// default) keeps exact mode — every candidate cosine-ranked,
	// bit-identical to an index without sketches. A PreRank·k cut at or
	// above the candidate count degenerates to exact mode.
	PreRank int
	// Workers bounds the worker pool for table construction, bulk
	// hashing, and candidate ranking. Zero uses GOMAXPROCS; one forces
	// the serial path. Hash tables and query results are identical at
	// any setting.
	Workers int
}

// Index is a multi-table random-hyperplane LSH index. It is safe for
// concurrent use: lookups take a read lock, Add takes a write lock.
//
// Reference storage is a structure-of-arrays arena: vector s occupies
// arena[s*Dim:(s+1)*Dim], its squared L2 norm normsSq[s], and its packed
// sign sketch sketches[s*sketchWords:(s+1)*sketchWords]. Slots are dense;
// Remove swap-moves the last slot into the hole so the arena never
// fragments and the ranking pass streams contiguous memory.
//
// Hash buckets hold slots, not ids, so candidate collection, Hamming
// pre-ranking, and cosine ranking are pure array indexing — no map
// lookups on the query hot path. Ranking translates slots back to
// public ids (slotIDs is a dense array) before the (distance, id)
// sort, so result ordering and tie-breaking stay on ids exactly as
// before. Remove redirects the swap-moved item's bucket entries using
// its stored sketch, keeping bucket slots valid.
type Index struct {
	cfg Config
	// planes is the row-major hyperplane matrix: the plane of (table t,
	// bit b) occupies planes[((t*Bits)+b)*Dim : ((t*Bits)+b+1)*Dim].
	// Immutable after New, so hashing never takes the index lock.
	planes []float32
	// sketchWords is the packed-sketch stride: ceil(Tables*Bits / 64).
	sketchWords int
	// preRank is the live Hamming pre-ranking budget (see Config.PreRank);
	// atomic so SetPreRank can retune a serving index without the lock.
	preRank atomic.Int64

	mu       sync.RWMutex
	tables   []map[uint64][]int
	arena    []float32
	normsSq  []float64
	sketches []uint64
	slotIDs  []int       // slot → id
	slots    map[int]int // id → slot
}

// New creates an empty index. It panics on a non-positive dimension or
// Bits > 64, which are programming errors.
func New(cfg Config) *Index {
	if cfg.Dim <= 0 {
		panic(fmt.Sprintf("lsh: invalid dimension %d", cfg.Dim))
	}
	if cfg.Tables <= 0 {
		cfg.Tables = 8
	}
	if cfg.Bits <= 0 {
		cfg.Bits = 16
	}
	if cfg.Bits > 64 {
		panic(fmt.Sprintf("lsh: bits %d > 64", cfg.Bits))
	}
	if cfg.Probes < 0 {
		cfg.Probes = 0
	} else if cfg.Probes == 0 {
		cfg.Probes = 2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.PreRank < 0 {
		cfg.PreRank = 0
	}
	ix := &Index{
		cfg:         cfg,
		planes:      make([]float32, cfg.Tables*cfg.Bits*cfg.Dim),
		sketchWords: (cfg.Tables*cfg.Bits + 63) / 64,
		tables:      make([]map[uint64][]int, cfg.Tables),
		slots:       make(map[int]int),
	}
	ix.preRank.Store(int64(cfg.PreRank))
	// Each table draws its hyperplanes from its own rand.Rand seeded
	// deterministically from the config seed, so construction can fan out
	// across the pool and the planes of table t never depend on how many
	// other tables exist, what order they are built in, or any other
	// package's use of the global math/rand source. The draw order within
	// a table (bit-major, then dimension) matches the former nested-slice
	// layout, so a given (seed, table) yields the same hyperplanes.
	parallel.For(cfg.Workers, cfg.Tables, 1, func(_, start, end int) {
		for t := start; t < end; t++ {
			rng := rand.New(rand.NewSource(tableSeed(cfg.Seed, t)))
			row := ix.planes[t*cfg.Bits*cfg.Dim : (t+1)*cfg.Bits*cfg.Dim]
			for i := range row {
				row[i] = float32(rng.NormFloat64())
			}
			ix.tables[t] = make(map[uint64][]int)
		}
	})
	return ix
}

// tableSeed derives an independent per-table seed from the index seed via
// a splitmix64 step, keeping per-table RNG streams decorrelated.
func tableSeed(seed int64, table int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(table+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Tables returns the number of hash tables (after defaulting).
func (ix *Index) Tables() int { return ix.cfg.Tables }

// Dim returns the configured vector dimensionality.
func (ix *Index) Dim() int { return ix.cfg.Dim }

// Config returns the index's effective configuration (after defaulting,
// with the live PreRank setting). Two indexes built from equal configs
// draw identical hyperplanes — the property sharding relies on for
// bit-identity.
func (ix *Index) Config() Config {
	cfg := ix.cfg
	cfg.PreRank = int(ix.preRank.Load())
	return cfg
}

// SetPreRank retunes the Hamming pre-ranking budget on a live index
// (see Config.PreRank). Zero restores exact mode. Sketches are always
// maintained at Add time, so the switch costs nothing and applies to the
// next query.
func (ix *Index) SetPreRank(n int) {
	if n < 0 {
		n = 0
	}
	ix.preRank.Store(int64(n))
}

// Len returns the number of stored items.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.slotIDs)
}

// Hash returns the bucket key of v in the given table.
func (ix *Index) Hash(table int, v []float32) uint64 {
	ix.checkDim(v)
	var key uint64
	dim := ix.cfg.Dim
	base := table * ix.cfg.Bits * dim
	for b := 0; b < ix.cfg.Bits; b++ {
		plane := ix.planes[base+b*dim : base+(b+1)*dim]
		var dot float64
		for d, x := range v {
			dot += float64(x) * float64(plane[d])
		}
		if dot >= 0 {
			key |= 1 << uint(b)
		}
	}
	return key
}

func (ix *Index) checkDim(v []float32) {
	if len(v) != ix.cfg.Dim {
		panic(fmt.Sprintf("lsh: vector dim %d, want %d", len(v), ix.cfg.Dim))
	}
}

// normSq accumulates the squared L2 norm in index order — the exact
// float64 addition sequence CosineDistance's per-vector reduction uses,
// which is what lets Add-time caching stay bit-identical to computing
// the norm inside the distance call.
func normSq(v []float32) float64 {
	var n float64
	for _, x := range v {
		f := float64(x)
		n += f * f
	}
	return n
}

// packSketch packs per-table bucket keys into a dense little-endian bit
// string: table t's bit b lands at global bit position t*bits + b. dst
// must hold ceil(len(keys)*bits / 64) words and is overwritten.
func packSketch(dst, keys []uint64, bitsPerTable int) {
	for i := range dst {
		dst[i] = 0
	}
	for t, key := range keys {
		p := t * bitsPerTable
		w, off := p>>6, uint(p&63)
		dst[w] |= key << off
		if off+uint(bitsPerTable) > 64 {
			dst[w+1] |= key >> (64 - off)
		}
	}
}

// unpackKey extracts table t's bucket key back out of a packed sketch —
// the inverse of packSketch, pinned to Hash by a differential fuzz
// target. Remove recovers bucket keys this way instead of re-hashing.
func unpackKey(sketch []uint64, t, bitsPerTable int) uint64 {
	p := t * bitsPerTable
	w, off := p>>6, uint(p&63)
	key := sketch[w] >> off
	if off+uint(bitsPerTable) > 64 {
		key |= sketch[w+1] << (64 - off)
	}
	if bitsPerTable < 64 {
		key &= 1<<uint(bitsPerTable) - 1
	}
	return key
}

// keyPool recycles per-call bucket-key and packed-sketch buffers.
var keyPool parallel.SlicePool[uint64]

// hashAll computes the bucket key of v in every table into keys (length
// Tables). Hashing reads only the immutable hyperplanes, so it runs
// outside the index lock; it fans out across tables only when the total
// multiply-add count is large enough to amortize the handoff (a full
// hash below the cutoff costs on the order of the fan-out itself).
func (ix *Index) hashAll(v []float32, keys []uint64) {
	workers := ix.cfg.Workers
	if ix.cfg.Tables*ix.cfg.Bits*ix.cfg.Dim < 1<<17 {
		workers = 1
	}
	parallel.For(workers, ix.cfg.Tables, 1, func(_, start, end int) {
		for t := start; t < end; t++ {
			keys[t] = ix.Hash(t, v)
		}
	})
}

// Add stores vector v under id, replacing any previous vector with the
// same id. The vector is copied into the arena. Per-table hashing, norm
// caching, and sketch packing all happen outside the write lock.
func (ix *Index) Add(id int, v []float32) {
	ix.checkDim(v)
	keys := keyPool.Get(ix.cfg.Tables)
	ix.hashAll(v, keys)
	n := normSq(v)
	sketch := keyPool.Get(ix.sketchWords)
	packSketch(sketch, keys, ix.cfg.Bits)

	ix.mu.Lock()
	if slot, ok := ix.slots[id]; ok {
		ix.removeSlotLocked(id, slot)
	}
	slot := len(ix.slotIDs)
	ix.arena = append(ix.arena, v...)
	ix.normsSq = append(ix.normsSq, n)
	ix.sketches = append(ix.sketches, sketch...)
	ix.slotIDs = append(ix.slotIDs, id)
	ix.slots[id] = slot
	for t := range ix.tables {
		ix.tables[t][keys[t]] = append(ix.tables[t][keys[t]], slot)
	}
	ix.mu.Unlock()
	keyPool.Put(sketch)
	keyPool.Put(keys)
}

// Remove deletes id from the index. Removing an absent id is a no-op.
func (ix *Index) Remove(id int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if slot, ok := ix.slots[id]; ok {
		ix.removeSlotLocked(id, slot)
	}
}

// removeSlotLocked unlinks slot from every bucket (bucket keys are
// recovered from the stored sketch — no re-hash) and swap-moves the last
// arena slot into the hole, keeping vector data, cached norms, and
// sketches dense. The moved item's bucket entries are redirected to its
// new slot the same way, via its own sketch. Callers must hold the
// write lock.
func (ix *Index) removeSlotLocked(id, slot int) {
	sw, dim := ix.sketchWords, ix.cfg.Dim
	sketch := ix.sketches[slot*sw : (slot+1)*sw]
	for t := range ix.tables {
		key := unpackKey(sketch, t, ix.cfg.Bits)
		bucket := ix.tables[t][key]
		for i, bs := range bucket {
			if bs == slot {
				ix.tables[t][key] = append(bucket[:i], bucket[i+1:]...)
				break
			}
		}
		if len(ix.tables[t][key]) == 0 {
			delete(ix.tables[t], key)
		}
	}
	last := len(ix.slotIDs) - 1
	if slot != last {
		moved := ix.sketches[last*sw : (last+1)*sw]
		for t := range ix.tables {
			bucket := ix.tables[t][unpackKey(moved, t, ix.cfg.Bits)]
			for i, bs := range bucket {
				if bs == last {
					bucket[i] = slot
					break
				}
			}
		}
		copy(ix.arena[slot*dim:(slot+1)*dim], ix.arena[last*dim:(last+1)*dim])
		copy(sketch, moved)
		ix.normsSq[slot] = ix.normsSq[last]
		movedID := ix.slotIDs[last]
		ix.slotIDs[slot] = movedID
		ix.slots[movedID] = slot
	}
	ix.arena = ix.arena[:last*dim]
	ix.sketches = ix.sketches[:last*sw]
	ix.normsSq = ix.normsSq[:last]
	ix.slotIDs = ix.slotIDs[:last]
	delete(ix.slots, id)
}

// eachLocked calls f with every stored (id, vector) pair in slot order.
// The vector slice aliases the arena: callers must hold at least a read
// lock for the duration and must not retain or mutate it.
func (ix *Index) eachLocked(f func(id int, v []float32)) {
	dim := ix.cfg.Dim
	for s, id := range ix.slotIDs {
		f(id, ix.arena[s*dim:(s+1)*dim])
	}
}

// CosineDistance returns 1 - cos(a, b), in [0, 2]. Zero vectors are at
// distance 1 from everything (undefined angle treated as orthogonal).
func CosineDistance(a, b []float32) float64 {
	var dot, na, nb float64
	for i := range a {
		x, y := float64(a[i]), float64(b[i])
		dot += x * y
		na += x * x
		nb += y * y
	}
	if na == 0 || nb == 0 {
		return 1
	}
	return 1 - dot/math.Sqrt(na*nb)
}

// rankGrain is the candidate granularity of parallel distance ranking.
const rankGrain = 32

// cosineFromDot finishes a cosine distance from the query·reference dot
// product and the two squared norms; a zero vector on either side is at
// distance 1 from everything.
func cosineFromDot(dot, qn, nb float64) float64 {
	if qn == 0 || nb == 0 {
		return 1
	}
	return 1 - dot/math.Sqrt(qn*nb)
}

// dot4 returns the dot products of v with four equally long rows in one
// sweep over v. Each product accumulates on its own, in index order, so
// every result is the one a single-row loop would give.
func dot4(v, r0, r1, r2, r3 []float32) (d0, d1, d2, d3 float64) {
	r0, r1, r2, r3 = r0[:len(v)], r1[:len(v)], r2[:len(v)], r3[:len(v)]
	for i, x := range v {
		f := float64(x)
		d0 += f * float64(r0[i])
		d1 += f * float64(r1[i])
		d2 += f * float64(r2[i])
		d3 += f * float64(r3[i])
	}
	return
}

// dot1 is the single-row dot product dot4's remainder rows use.
func dot1(v, r []float32) (d float64) {
	r = r[:len(v)]
	for i, x := range v {
		d += float64(x) * float64(r[i])
	}
	return
}

// rankRange ranks candidates neighbors[start:end], whose ID field holds
// arena slots on entry: a dot-product pass over the arena rows of sixteen
// candidates at a time (simd.Dot16), then four, then one, against the
// Add-time norm cache and the hoisted query norm qn, then the slot is
// rewritten to the public id. Every form accumulates a row's dot in index
// order and the norms accumulate per vector in index order — the same
// three float64 reduction sequences CosineDistance runs in one loop — so
// the distance is bit-identical to the fused computation.
func (ix *Index) rankRange(v []float32, qn float64, neighbors []Neighbor, start, end int) {
	dim := ix.cfg.Dim
	row := func(slot int) []float32 { return ix.arena[slot*dim : (slot+1)*dim] }
	finish := func(i int, dot float64) {
		slot := neighbors[i].ID
		neighbors[i] = Neighbor{ID: ix.slotIDs[slot], Dist: cosineFromDot(dot, qn, ix.normsSq[slot])}
	}
	i := start
	for ; i+16 <= end; i += 16 {
		var rows [16]*float32
		var dots [16]float64
		for r := range rows {
			rows[r] = &row(neighbors[i+r].ID)[0]
		}
		simd.Dot16(&dots, v, &rows)
		for r, d := range dots {
			finish(i+r, d)
		}
	}
	for ; i+4 <= end; i += 4 {
		d0, d1, d2, d3 := dot4(v, row(neighbors[i].ID), row(neighbors[i+1].ID), row(neighbors[i+2].ID), row(neighbors[i+3].ID))
		finish(i, d0)
		finish(i+1, d1)
		finish(i+2, d2)
		finish(i+3, d3)
	}
	for ; i < end; i++ {
		finish(i, dot1(v, row(neighbors[i].ID)))
	}
}

// rankLocked ranks every candidate neighbor (ID holds the arena slot on
// entry, the public id on return — see rankRange). The query norm is
// computed once and shared by every candidate; each distance is an
// independent exact computation, so the fan-out cannot change results.
// The serial path runs inline (no closure, no goroutines — zero
// allocations). Callers must hold at least a read lock.
func (ix *Index) rankLocked(v []float32, neighbors []Neighbor) {
	qn := normSq(v)
	n := len(neighbors)
	if ix.cfg.Workers == 1 || n <= rankGrain {
		ix.rankRange(v, qn, neighbors, 0, n)
		return
	}
	parallel.For(ix.cfg.Workers, n, rankGrain, func(_, start, end int) {
		ix.rankRange(v, qn, neighbors, start, end)
	})
}

// rankAllLocked ranks every stored item into neighbors (length Len) —
// the ExactNN path: every slot is a candidate, listed in slot order, so
// the rank kernel streams the arena front to back. Callers must hold at
// least a read lock.
func (ix *Index) rankAllLocked(v []float32, neighbors []Neighbor) {
	for s := range neighbors {
		neighbors[s].ID = s
	}
	ix.rankLocked(v, neighbors)
}

// preRankLocked cuts the candidate set (ID holds arena slots) to
// PreRank·k by packed-sketch Hamming distance (XOR + popcount over
// sketchWords words per candidate) ahead of exact cosine ranking.
// Selection is under the (Hamming, slot) total order, so the kept set
// is deterministic. With PreRank zero, or PreRank·k at or above the
// candidate count, the set is returned intact — exact mode. keys are
// the query's per-table bucket keys (already computed for probing).
// Callers must hold at least a read lock.
func (ix *Index) preRankLocked(keys []uint64, neighbors []Neighbor, k int) []Neighbor {
	pr := int(ix.preRank.Load())
	if pr <= 0 {
		return neighbors
	}
	keep := pr * k
	if keep <= 0 || keep >= len(neighbors) {
		return neighbors
	}
	qs := keyPool.Get(ix.sketchWords)
	packSketch(qs, keys, ix.cfg.Bits)
	n := len(neighbors)
	if ix.cfg.Workers == 1 || n <= rankGrain {
		ix.hammingRange(qs, neighbors, 0, n)
	} else {
		parallel.For(ix.cfg.Workers, n, rankGrain, func(_, start, end int) {
			ix.hammingRange(qs, neighbors, start, end)
		})
	}
	neighbors = sortAndTrim(neighbors, keep)
	keyPool.Put(qs)
	return neighbors
}

// hammingRange fills Dist for neighbors[start:end] (ID holds the arena
// slot) with the Hamming distance between each candidate's packed
// sketch and the query sketch qs — XOR and popcount over sketchWords
// words per candidate, straight out of the sketch slab.
func (ix *Index) hammingRange(qs []uint64, neighbors []Neighbor, start, end int) {
	sw := ix.sketchWords
	for i := start; i < end; i++ {
		ref := ix.sketches[neighbors[i].ID*sw : (neighbors[i].ID+1)*sw]
		h := 0
		for w, x := range ref {
			h += bits.OnesCount64(x ^ qs[w])
		}
		neighbors[i].Dist = float64(h)
	}
}

// neighborLess is the (distance, id) comparator used everywhere results
// are ranked. Distinct IDs make it a strict total order, so any ranking
// built on it is deterministic regardless of candidate collection order.
func neighborLess(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// sortAndTrim orders neighbors by (distance, id) and truncates to k.
// When the candidate set is larger than k it first quickselect-partitions
// the k smallest to the front — O(n) expected instead of O(n log n) —
// and sorts only that prefix. The comparator is a total order, so the set
// of k smallest and its sorted order are both unique: the output is
// identical to a full sort followed by truncation.
func sortAndTrim(neighbors []Neighbor, k int) []Neighbor {
	if k <= 0 {
		return neighbors[:0]
	}
	if len(neighbors) > k {
		selectK(neighbors, k)
		neighbors = neighbors[:k]
	}
	sort.Slice(neighbors, func(i, j int) bool {
		return neighborLess(neighbors[i], neighbors[j])
	})
	return neighbors
}

// selectCutoff is the range width below which selectK switches from
// partitioning to insertion sort.
const selectCutoff = 12

// selectK partitions a so its k smallest elements under neighborLess
// occupy a[:k] in unspecified order. Median-of-three pivots keep the walk
// deterministic (no RNG) and resistant to sorted inputs. Requires
// 0 < k < len(a).
func selectK(a []Neighbor, k int) {
	lo, hi := 0, len(a) // half-open working range
	for hi-lo > selectCutoff {
		p := partitionNeighbors(a, lo, hi)
		switch {
		case p == k-1:
			return
		case p < k-1:
			lo = p + 1
		default:
			hi = p
		}
	}
	insertionSortNeighbors(a, lo, hi)
}

// partitionNeighbors partitions a[lo:hi] around a median-of-three pivot
// and returns the pivot's final position.
func partitionNeighbors(a []Neighbor, lo, hi int) int {
	mid := lo + (hi-lo)/2
	if neighborLess(a[mid], a[lo]) {
		a[mid], a[lo] = a[lo], a[mid]
	}
	if neighborLess(a[hi-1], a[mid]) {
		a[hi-1], a[mid] = a[mid], a[hi-1]
		if neighborLess(a[mid], a[lo]) {
			a[mid], a[lo] = a[lo], a[mid]
		}
	}
	a[mid], a[hi-1] = a[hi-1], a[mid]
	pivot := a[hi-1]
	i := lo
	for j := lo; j < hi-1; j++ {
		if neighborLess(a[j], pivot) {
			a[i], a[j] = a[j], a[i]
			i++
		}
	}
	a[i], a[hi-1] = a[hi-1], a[i]
	return i
}

func insertionSortNeighbors(a []Neighbor, lo, hi int) {
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && neighborLess(a[j], a[j-1]); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// seenPool recycles the per-query candidate-dedup bitmap. Slots are
// dense, so membership is one bool indexed by slot — no hash map on the
// candidate-collection path.
var seenPool parallel.SlicePool[bool]

// collectLocked gathers the deduplicated candidate slots of the query
// whose per-table bucket keys are keys — the exact buckets plus
// single-bit-flip probe buckets — and appends them to dst as
// Neighbor{ID: slot} entries in ascending slot order, so the ranking
// passes walk the arena and the sketch slab forwards. Every ranking is
// under a total order ((Hamming, slot), then (distance, id)), so the
// order candidates are listed in never shows in a result. seen must be a
// zeroed bitmap of Len bools; it is left with the collected slots set.
// Callers must hold at least a read lock.
func (ix *Index) collectLocked(keys []uint64, seen []bool, dst []Neighbor) []Neighbor {
	for t := range ix.tables {
		key := keys[t]
		for _, s := range ix.tables[t][key] {
			seen[s] = true
		}
		for p := 0; p < ix.cfg.Probes && p < ix.cfg.Bits; p++ {
			for _, s := range ix.tables[t][key^(1<<uint(p))] {
				seen[s] = true
			}
		}
	}
	for s, hit := range seen {
		if hit {
			dst = append(dst, Neighbor{ID: s})
		}
	}
	return dst
}

// Query returns up to k approximate nearest neighbours of v, ranked by
// exact cosine distance over the union of candidate buckets across all
// tables (plus multi-probe buckets differing by one bit). With PreRank
// armed the candidate set is first cut to PreRank·k by sketch Hamming
// distance. Per-table hashing and candidate ranking run on the worker
// pool; candidate scratch is pooled, so only the top-k copy escapes.
func (ix *Index) Query(v []float32, k int) []Neighbor {
	ix.checkDim(v)
	if k <= 0 {
		return nil
	}
	keys := keyPool.Get(ix.cfg.Tables)
	ix.hashAll(v, keys)

	ix.mu.RLock()
	seen := seenPool.Get(len(ix.slotIDs))
	scratch := neighborPool.Get(0)
	neighbors := ix.collectLocked(keys, seen, scratch[:0])
	neighbors = ix.preRankLocked(keys, neighbors, k)
	ix.rankLocked(v, neighbors)
	ix.mu.RUnlock()
	top := sortAndTrim(neighbors, k)
	out := make([]Neighbor, len(top))
	copy(out, top)
	if cap(neighbors) > cap(scratch) {
		scratch = neighbors
	}
	neighborPool.Put(scratch)
	seenPool.Put(seen)
	keyPool.Put(keys)
	return out
}

// neighborPool recycles candidate-ranking buffers across Query and
// ExactNN calls, so a steady stream of queries allocates only the trimmed
// result slices that escape to the caller.
var neighborPool parallel.SlicePool[Neighbor]

// ExactNN returns the true k nearest neighbours by brute force — the
// accuracy baseline LSH recall is measured against. The distance scan
// streams the arena in slot order (row-parallel on the worker pool) into
// a pooled candidate buffer; only the trimmed top-k escapes.
func (ix *Index) ExactNN(v []float32, k int) []Neighbor {
	ix.checkDim(v)
	if k <= 0 {
		return nil
	}
	ix.mu.RLock()
	scratch := neighborPool.Get(len(ix.slotIDs))
	ix.rankAllLocked(v, scratch)
	ix.mu.RUnlock()
	top := sortAndTrim(scratch, k)
	out := make([]Neighbor, len(top))
	copy(out, top)
	neighborPool.Put(scratch)
	return out
}
