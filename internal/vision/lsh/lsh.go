// Package lsh implements locality-sensitive hashing for approximate
// nearest-neighbour search over Fisher vectors — scAtteR's lsh service.
// It uses random-hyperplane (signed random projection) hashing: each of
// several tables hashes a vector to a bit string of hyperplane signs, and
// queries probe the exact bucket plus optional single-bit-flip buckets
// (multi-probe) before ranking candidates by exact cosine distance.
//
// The distance kernels are laid out for the cache, not the type system:
// reference vectors live in a structure-of-arrays arena (vector data in
// fixed chunks of chunkRows rows, squared norms and per-table bucket keys
// in two dense parallel slabs, all indexed by slot), hyperplanes in one
// row-major matrix, and ranking does a single dot-product pass per
// candidate against norms cached at Add time.
//
// A stored row keeps the high 16 bits of each of its floats first and
// the low 16 bits after them. Above screenCutIn candidates, ranking
// screens every candidate on the high halves alone — half the bytes — and
// gets an interval its exact distance must lie in; only the candidates
// whose interval reaches below the k-th smallest upper end are rebuilt
// and ranked exactly. The result is the one ranking every candidate
// exactly gives, bit for bit (see screenLocked). Query and ExactNN share
// this one ranking path.
package lsh

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sync"

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
	// Workers bounds the worker pool for table construction, the
	// high-half screen and exact candidate ranking. Zero uses
	// GOMAXPROCS; one forces the serial path, on which a query
	// allocates only its result. Hash tables and query results are
	// identical at any setting.
	Workers int
}

// Index is a multi-table random-hyperplane LSH index. It is safe for
// concurrent use: lookups take a read lock, Add takes a write lock.
//
// Reference storage is a structure-of-arrays arena: vector s is the split
// row r = arena[s>>chunkShift][(s%chunkRows)*2*Dim:][:2*Dim] — the high
// 16 bits of its Dim floats, then their low 16 bits, so float d is
// r[d]<<16 | r[Dim+d] — its squared L2 norm normsSq[s], and its bucket
// key in each table, keys[s*Tables:(s+1)*Tables]. The rows live in chunks
// of chunkRows, so a growing index never copies a stored row: the first
// chunk grows by append (a small index stays exactly sized), every later
// one is made at full size. Slots are dense; Remove swap-moves the last
// slot into the hole so the arena never fragments and the ranking passes
// stream memory one chunk after another.
//
// Hash buckets hold slots, not ids, so candidate collection and cosine
// ranking are pure array indexing — no map lookups on the query hot
// path. Ranking translates slots back to public ids (slotIDs is a dense
// array) before the (distance, id) sort, so result ordering and
// tie-breaking stay on ids exactly as before. Remove finds a row's
// buckets, and the swap-moved row's, from their stored keys rather than
// by re-hashing, keeping bucket slots valid.
type Index struct {
	cfg Config
	// planes is the row-major hyperplane matrix: the plane of (table t,
	// bit b) occupies planes[((t*Bits)+b)*Dim : ((t*Bits)+b+1)*Dim].
	// Immutable after New, so hashing never takes the index lock.
	planes []float32

	// slack is the relative half-width of a screened distance
	// interval (see screenSlack); fixed by Dim.
	slack float64

	mu      sync.RWMutex
	tables  []map[uint64][]int
	arena   [][]uint16 // split rows, chunkRows a chunk: high halves, then low halves
	normsSq []float64
	keys    []uint64    // bucket key per (slot, table), stride Tables
	slotIDs []int       // slot → id
	slots   map[int]int // id → slot
	// nonFinite counts stored rows with a NaN or infinite component
	// (exactly the rows whose cached squared norm is not finite); while
	// there is one, the screen stands down.
	nonFinite int
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
	ix := &Index{
		cfg:    cfg,
		planes: make([]float32, cfg.Tables*cfg.Bits*cfg.Dim),
		slack:  screenSlack(cfg.Dim),
		tables: make([]map[uint64][]int, cfg.Tables),
		slots:  make(map[int]int),
	}
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

// Dim returns the configured vector dimensionality.
func (ix *Index) Dim() int { return ix.cfg.Dim }

// Len returns the number of stored items.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.slotIDs)
}

func (ix *Index) checkDim(v []float32) {
	if len(v) != ix.cfg.Dim {
		panic(fmt.Sprintf("lsh: vector dim %d, want %d", len(v), ix.cfg.Dim))
	}
}

// normSq accumulates the squared L2 norm in index order — the exact
// float64 addition sequence the reference CosineDistance (lsh_test.go)
// uses per vector, which is what lets Add-time caching stay
// bit-identical to computing the norm inside the distance call.
func normSq(v []float32) float64 {
	var n float64
	for _, x := range v {
		f := float64(x)
		n += f * f
	}
	return n
}

func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// hashAll computes the bucket key of v in every table into keys (length
// Tables): plane p of the row-major plane matrix sets bit p%Bits of
// keys[p/Bits] when its dot product with v is >= 0. simd.Dot16 takes the
// planes sixteen at a time; a last partial block points its spare lanes at
// the last plane and ignores their sums. Each lane adds its float64
// products in ascending index from zero, so every key is the one a scalar
// loop over each plane gives. Hashing reads only the immutable hyperplanes,
// so it runs outside the index lock.
func (ix *Index) hashAll(v []float32, keys []uint64) {
	clear(keys)
	dim, nb := ix.cfg.Dim, ix.cfg.Bits
	planes := len(ix.planes) / dim
	for p := 0; p < planes; p += 16 {
		n := min(16, planes-p)
		var rows [16]*float32
		var dots [16]float64
		for r := range rows {
			rows[r] = &ix.planes[(p+min(r, n-1))*dim]
		}
		simd.Dot16(&dots, v, &rows)
		for r, d := range dots[:n] {
			if d >= 0 {
				keys[(p+r)/nb] |= 1 << uint((p+r)%nb)
			}
		}
	}
}

// chunkShift sets the arena's chunk size: chunkRows split rows a chunk.
// At bigdb-100k's Dim 384 a chunk is 1.5 MB; chunks of 4 096 rows built
// that index no faster and can leave 6 MB unused in the last one.
const (
	chunkShift = 10
	chunkRows  = 1 << chunkShift
)

// row returns the split row of slot.
func (ix *Index) row(slot int) []uint16 {
	stride := 2 * ix.cfg.Dim
	return ix.arena[slot>>chunkShift][slot%chunkRows*stride:][:stride]
}

// Add stores vector v under id, replacing any previous vector with the
// same id. The vector is copied into the arena as a split row. Per-table
// hashing, norm caching and splitting the row all happen outside the
// write lock, into buffers of a pooled scratch that they overwrite whole.
func (ix *Index) Add(id int, v []float32) {
	ix.checkDim(v)
	sc := scratchPool.Get().(*scratch)
	keys, row := resize(sc.keys, ix.cfg.Tables), resize(sc.row, 2*ix.cfg.Dim)
	sc.keys, sc.row = keys, row
	ix.hashAll(v, keys)
	n := normSq(v)
	for d, x := range v {
		b := math.Float32bits(x)
		row[d], row[ix.cfg.Dim+d] = uint16(b>>16), uint16(b)
	}

	ix.mu.Lock()
	if slot, ok := ix.slots[id]; ok {
		ix.removeSlotLocked(id, slot)
	}
	slot := len(ix.slotIDs)
	c := slot >> chunkShift
	if c == len(ix.arena) {
		var chunk []uint16 // the first grows by append
		if c > 0 {
			chunk = make([]uint16, 0, chunkRows*len(row))
		}
		ix.arena = append(ix.arena, chunk)
	}
	ix.arena[c] = append(ix.arena[c], row...)
	if !finite(n) {
		ix.nonFinite++
	}
	ix.normsSq = append(ix.normsSq, n)
	ix.keys = append(ix.keys, keys...)
	ix.slotIDs = append(ix.slotIDs, id)
	ix.slots[id] = slot
	for t := range ix.tables {
		ix.tables[t][keys[t]] = append(ix.tables[t][keys[t]], slot)
	}
	ix.mu.Unlock()
	scratchPool.Put(sc)
}

// Remove deletes id from the index. Removing an absent id is a no-op.
func (ix *Index) Remove(id int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if slot, ok := ix.slots[id]; ok {
		ix.removeSlotLocked(id, slot)
	}
}

// removeSlotLocked unlinks slot from every bucket (bucket keys are read
// from the key slab — no re-hash) and swap-moves the last arena slot into
// the hole, keeping vector data, cached norms, and keys dense. The moved
// item's bucket entries are redirected to its new slot the same way, via
// its own keys. A last chunk that empties stays in the arena with its
// capacity, for the next Add. Callers must hold the write lock.
func (ix *Index) removeSlotLocked(id, slot int) {
	nt := ix.cfg.Tables
	if !finite(ix.normsSq[slot]) {
		ix.nonFinite--
	}
	keys := ix.keys[slot*nt : (slot+1)*nt]
	for t, key := range keys {
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
		moved := ix.keys[last*nt : (last+1)*nt]
		for t, key := range moved {
			bucket := ix.tables[t][key]
			for i, bs := range bucket {
				if bs == last {
					bucket[i] = slot
					break
				}
			}
		}
		copy(ix.row(slot), ix.row(last))
		copy(keys, moved)
		ix.normsSq[slot] = ix.normsSq[last]
		movedID := ix.slotIDs[last]
		ix.slotIDs[slot] = movedID
		ix.slots[movedID] = slot
	}
	c := last >> chunkShift
	ix.arena[c] = ix.arena[c][:last%chunkRows*2*ix.cfg.Dim]
	ix.keys = ix.keys[:last*nt]
	ix.normsSq = ix.normsSq[:last]
	ix.slotIDs = ix.slotIDs[:last]
	delete(ix.slots, id)
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

// rebuild writes the stored floats of slot into dst (length Dim), each put
// back together from its high and low half, bit for bit what Add was given.
func (ix *Index) rebuild(dst []float32, slot int) []float32 {
	dim := ix.cfg.Dim
	row := ix.row(slot)
	hi, lo := row[:dim], row[dim:]
	dst = dst[:dim]
	for d := range dst {
		dst[d] = math.Float32frombits(uint32(hi[d])<<16 | uint32(lo[d]))
	}
	return dst
}

// rankRange ranks candidates neighbors[start:end], whose ID field holds
// arena slots on entry: sixteen candidates at a time are rebuilt into
// pooled rows and go through one dot-product pass (simd.Dot16) against the
// Add-time norm cache and the query norm qn, then the slot is rewritten to
// the public id. A last partial block points its spare lanes at its last
// rebuilt row and finishes only the real candidates. Each lane accumulates
// a row's dot in index order and the norms accumulate per vector in index
// order — the same three float64 reduction sequences the reference
// CosineDistance runs in one loop — so the distance is bit-identical to
// the fused computation.
func (ix *Index) rankRange(v []float32, qn float64, neighbors []Neighbor, start, end int) {
	dim := ix.cfg.Dim
	sc := scratchPool.Get().(*scratch)
	rows := resize(sc.rows, 16*dim)
	sc.rows = rows
	for i := start; i < end; i += 16 {
		n := min(16, end-i)
		var ptrs [16]*float32
		var dots [16]float64
		for r := range ptrs {
			if r < n {
				ptrs[r] = &ix.rebuild(rows[r*dim:], neighbors[i+r].ID)[0]
			} else {
				ptrs[r] = ptrs[n-1]
			}
		}
		simd.Dot16(&dots, v, &ptrs)
		for r, dot := range dots[:n] {
			slot := neighbors[i+r].ID
			neighbors[i+r] = Neighbor{ID: ix.slotIDs[slot], Dist: cosineFromDot(dot, qn, ix.normsSq[slot])}
		}
	}
	scratchPool.Put(sc)
}

// rankLocked ranks every candidate neighbor (ID holds the arena slot on
// entry, the public id on return — see rankRange) against v, whose
// squared norm qn the caller computed once for the screen and the exact
// pass alike; each distance is an independent exact computation, so the
// fan-out cannot change results. The serial path runs inline (no closure,
// no goroutines — zero allocations). Callers must hold at least a read
// lock.
func (ix *Index) rankLocked(v []float32, qn float64, neighbors []Neighbor) {
	n := len(neighbors)
	if ix.cfg.Workers == 1 || n <= rankGrain {
		ix.rankRange(v, qn, neighbors, 0, n)
		return
	}
	parallel.For(ix.cfg.Workers, n, rankGrain, func(_, start, end int) {
		ix.rankRange(v, qn, neighbors, start, end)
	})
}

// screenCutIn is the candidate count above which ranking screens on the
// high halves first. At or below it, ranking every candidate exactly
// costs little enough that the screen's extra pass does not pay.
const screenCutIn = 4096

// screenGrain is the candidate granularity of the parallel screen pass.
const screenGrain = 1024

// screenSlack is the relative half-width of a screened distance interval
// at dimension dim: 2⁻⁷ for the dropped low halves, 2g ≥ g/(1−g) = γ for
// the float32 accumulation of dim rounded products, g = (dim+1)·2⁻²⁴, and
// 2⁻³⁰ for float64 rounding (see screenLocked). Past g = 1/2 the bound is
// not worth having and the slack is infinite: every candidate is kept.
func screenSlack(dim int) float64 {
	g := float64(dim+1) * 0x1p-24
	if g > 0.5 {
		return math.Inf(1)
	}
	return 0x1p-7 + 2*g + 0x1p-30
}

// screenLocked returns, as Neighbor{ID: slot}, the candidates among slots
// (ascending) that can be among the k nearest of v, whose squared norm is
// qn. They always include the exact k nearest, ties and all, so ranking
// them exactly gives the result that ranking every candidate would.
//
// The screen stands down, and every candidate is returned, when there are
// at most screenCutIn candidates or no more than k; when the query is zero
// or not finite (qn is then 0, +Inf or NaN); and while a stored row is not
// finite, since its distance would be NaN and no interval holds NaN.
//
// Otherwise simd.DotHighHalf gives each candidate the float32 dot product
// ĥ of v with h, its row with the low 16 bits of every float cleared. A
// normal float x moves by |x − h| < 2⁻⁷·|x| and a subnormal one by less
// than 2⁻¹³³, so by Cauchy–Schwarz v·h is within 2⁻⁷·√(qn·nb) +
// 2⁻¹³³·√(Dim·qn) of v·x (nb the row's squared norm). ĥ is within
// γ·Σ|vᵢhᵢ| ≤ γ·√(qn·nb) of v·h, γ = g/(1−g) with g = (Dim+1)·2⁻²⁴ —
// rounded products in sums no deeper than Dim terms — plus 2⁻¹⁵⁰ for each
// product that underflows. The exact path's own float64 rounding (the
// dot product, the cached norms, the square root, division and the
// subtraction from 1) and the rounding in forming the interval are each
// far below 2⁻⁴⁰, which screenSlack's 2⁻³⁰ covers. So with s = √(qn·nb)
// computed as cosineFromDot computes it, the exactly ranked distance lies
// in [c − δ, c + δ], c = 1 − ĥ/s and δ = slack + (2⁻¹³²·√(Dim·qn) +
// Dim·2⁻¹⁴⁹)/s, the absolute terms doubled against their own rounding. A
// zero row's interval is [1, 1], its exact distance; a candidate with s
// above 2¹²⁶, whose float32 sum might overflow, gets (−∞, +∞).
//
// Let U be the k-th smallest upper end. The k candidates that hold the k
// smallest upper ends have exact distances ≤ U, so every one of the exact
// k nearest has an exact distance ≤ U too, and a lower end ≤ U: keeping
// every candidate whose lower end is ≤ U keeps them all. A max-heap holds
// the k smallest upper ends seen so far; its top only falls, towards U,
// so a candidate whose lower end is above it is dropped on the spot, and
// the rest are filtered against U at the end. Callers must hold at least
// a read lock.
func (ix *Index) screenLocked(v []float32, qn float64, slots []int32, k int, sc *scratch) []Neighbor {
	if len(slots) <= screenCutIn || k >= len(slots) || ix.nonFinite > 0 || !(qn > 0) || math.IsInf(qn, 1) {
		return sc.candidates(slots)
	}
	dim := ix.cfg.Dim
	dots := resize(sc.dots, len(slots))
	sc.dots = dots
	if ix.cfg.Workers == 1 || len(slots) <= screenGrain {
		simd.DotHighHalf(dots, v, ix.arena, chunkShift, 2*dim, slots)
	} else {
		parallel.For(ix.cfg.Workers, len(slots), screenGrain, func(_, start, end int) {
			simd.DotHighHalf(dots[start:end], v, ix.arena, chunkShift, 2*dim, slots[start:end])
		})
	}
	abs := 0x1p-132*math.Sqrt(float64(dim)*qn) + float64(dim)*0x1p-149
	cands, top := sc.cands[:0], sc.bounds[:0]
	for i, s := range slots {
		lo, hi := 1.0, 1.0
		if nb := ix.normsSq[s]; nb != 0 {
			root := math.Sqrt(qn * nb)
			if root > 0x1p126 {
				lo, hi = math.Inf(-1), math.Inf(1)
			} else {
				c, e := 1-float64(dots[i])/root, ix.slack+abs/root
				lo, hi = c-e, c+e
			}
		}
		if len(top) < k {
			top = pushBound(top, hi)
		} else {
			if hi < top[0] {
				replaceTop(top, hi)
			}
			if lo > top[0] {
				continue
			}
		}
		cands = append(cands, Neighbor{ID: int(s), Dist: lo}) // Dist: the lower end, until the filter
	}
	sc.bounds, sc.cands = top, cands
	kept := cands[:0]
	for _, c := range cands {
		if c.Dist <= top[0] {
			kept = append(kept, Neighbor{ID: c.ID})
		}
	}
	return kept
}

// pushBound adds x to the max-heap h.
func pushBound(h []float64, x float64) []float64 {
	h = append(h, x)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] >= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

// replaceTop puts x in place of the largest element of the max-heap h.
func replaceTop(h []float64, x float64) {
	h[0] = x
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if h[c] <= h[i] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// neighborLess is the (distance, id) comparator used everywhere results
// are ranked, a NaN distance (a NaN or infinite row or query) after every
// number. Distinct IDs make it a strict total order, so any ranking built
// on it is deterministic regardless of candidate collection order.
func neighborLess(a, b Neighbor) bool {
	if a.Dist < b.Dist || b.Dist != b.Dist && a.Dist == a.Dist {
		return true
	}
	if b.Dist < a.Dist || a.Dist != a.Dist && b.Dist == b.Dist {
		return false
	}
	return a.ID < b.ID
}

// compareNeighbors is neighborLess as a three-way comparison.
func compareNeighbors(a, b Neighbor) int {
	switch {
	case neighborLess(a, b):
		return -1
	case neighborLess(b, a):
		return 1
	}
	return 0
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
	slices.SortFunc(neighbors, compareNeighbors)
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

// scratch is the working memory of one query or one Add. It is pooled
// across both, so that after warm-up a query allocates only its result.
type scratch struct {
	keys   []uint64   // the bucket key per table of the query or added vector
	seen   []uint64   // candidate bitset over slots; all zero while pooled
	slots  []int32    // candidate slots, ascending
	dots   []float32  // the screen's dot product per candidate
	bounds []float64  // max-heap of the k smallest upper ends
	cands  []Neighbor // candidates for exact ranking
	rows   []float32  // up to 16 rebuilt rows for the exact pass
	row    []uint16   // Add's split row
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// candidates lists slots as Neighbor{ID: slot} in sc.cands.
func (sc *scratch) candidates(slots []int32) []Neighbor {
	cands := sc.cands[:0]
	for _, s := range slots {
		cands = append(cands, Neighbor{ID: int(s)})
	}
	sc.cands = cands
	return cands
}

// resize returns s at length n, allocating (zeroed) only when its
// capacity is short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// collectLocked gathers the deduplicated candidate slots of the query
// whose per-table bucket keys are sc.keys — the exact buckets plus
// single-bit-flip probe buckets — as bits of the bitset sc.seen, then
// lists them in ascending slot order (TrailingZeros64 per set bit),
// clearing the bitset as it goes, so the ranking passes walk the arena
// forwards. Ranking is under the (distance, id) total order, so the order
// candidates are listed in never shows in a result. Callers must hold at
// least a read lock.
func (ix *Index) collectLocked(sc *scratch) []int32 {
	seen := resize(sc.seen, (len(ix.slotIDs)+63)/64)
	sc.seen = seen
	for t := range ix.tables {
		for p := -1; p < ix.cfg.Probes && p < ix.cfg.Bits; p++ {
			key := sc.keys[t]
			if p >= 0 {
				key ^= 1 << uint(p)
			}
			for _, s := range ix.tables[t][key] {
				seen[s>>6] |= 1 << uint(s&63)
			}
		}
	}
	slots := sc.slots[:0]
	for w, word := range seen {
		for ; word != 0; word &= word - 1 {
			slots = append(slots, int32(w<<6|bits.TrailingZeros64(word)))
		}
		seen[w] = 0
	}
	sc.slots = slots
	return slots
}

// Query returns up to k approximate nearest neighbours of v, ranked by
// exact cosine distance over the union of candidate buckets across all
// tables (plus multi-probe buckets differing by one bit). Above
// screenCutIn candidates only those the high-half screen cannot rule out
// are ranked, which changes no result.
func (ix *Index) Query(v []float32, k int) []Neighbor {
	ix.checkDim(v)
	if k <= 0 {
		return nil
	}
	sc := scratchPool.Get().(*scratch)
	sc.keys = resize(sc.keys, ix.cfg.Tables)
	ix.hashAll(v, sc.keys)
	qn := normSq(v)

	ix.mu.RLock()
	cands := ix.screenLocked(v, qn, ix.collectLocked(sc), k, sc)
	ix.rankLocked(v, qn, cands)
	ix.mu.RUnlock()
	out := trimmedCopy(cands, k)
	scratchPool.Put(sc)
	return out
}

// trimmedCopy returns the k nearest of the ranked candidates in a slice
// of their own — the one allocation of a query.
func trimmedCopy(cands []Neighbor, k int) []Neighbor {
	top := sortAndTrim(cands, k)
	out := make([]Neighbor, len(top))
	copy(out, top)
	return out
}

// ExactNN returns the true k nearest neighbours by brute force — the
// accuracy baseline LSH recall is measured against. Every stored item is
// a candidate, listed in slot order, so the screen and the exact pass
// stream the arena front to back.
func (ix *Index) ExactNN(v []float32, k int) []Neighbor {
	ix.checkDim(v)
	if k <= 0 {
		return nil
	}
	sc := scratchPool.Get().(*scratch)
	qn := normSq(v)
	ix.mu.RLock()
	slots := resize(sc.slots, len(ix.slotIDs))
	sc.slots = slots
	for s := range slots {
		slots[s] = int32(s)
	}
	cands := ix.screenLocked(v, qn, slots, k, sc)
	ix.rankLocked(v, qn, cands)
	ix.mu.RUnlock()
	out := trimmedCopy(cands, k)
	scratchPool.Put(sc)
	return out
}
