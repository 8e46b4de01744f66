package lsh

// Exact-equality oracles for the query path. The ref functions are the
// kernels as they stood before candidates were listed in slot order,
// ranked four arena rows per sweep and screened on the high halves of the
// stored floats; refQuery and refExactNN assemble them the way Query and
// ExactNN did, serially, ranking every candidate exactly. They read the
// stored rows through storedRow, which puts each float back together from
// the split layout.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"unsafe"
)

// storedRow writes the floats stored in slot into row (length Dim),
// rebuilt from their high and low halves in chunk slot/chunkRows.
func (ix *Index) storedRow(row []float32, slot int) []float32 {
	dim := ix.cfg.Dim
	split := ix.arena[slot/chunkRows][slot%chunkRows*2*dim:]
	for d := range row {
		row[d] = math.Float32frombits(uint32(split[d])<<16 | uint32(split[dim+d]))
	}
	return row
}

// refHash is the bucket key of v in the given table, one plane at a time,
// each dot product a scalar float64 sum in index order from zero.
func (ix *Index) refHash(table int, v []float32) uint64 {
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

// refCollectLocked lists candidates in the order the buckets yield them:
// table by table, exact bucket then probes, first sighting wins.
func (ix *Index) refCollectLocked(keys []uint64, seen []bool, dst []Neighbor) []Neighbor {
	for t := range ix.tables {
		key := keys[t]
		for _, s := range ix.tables[t][key] {
			if !seen[s] {
				seen[s] = true
				dst = append(dst, Neighbor{ID: s})
			}
		}
		for p := 0; p < ix.cfg.Probes && p < ix.cfg.Bits; p++ {
			for _, s := range ix.tables[t][key^(1<<uint(p))] {
				if !seen[s] {
					seen[s] = true
					dst = append(dst, Neighbor{ID: s})
				}
			}
		}
	}
	return dst
}

// refRankRange is the one-arena-row-per-candidate distance pass.
func (ix *Index) refRankRange(v []float32, qn float64, neighbors []Neighbor, start, end int) {
	ref := make([]float32, ix.cfg.Dim)
	for i := start; i < end; i++ {
		slot := neighbors[i].ID
		ix.storedRow(ref, slot)
		var dot float64
		for d, x := range v {
			dot += float64(x) * float64(ref[d])
		}
		nb := ix.normsSq[slot]
		d := 1.0
		if qn != 0 && nb != 0 {
			d = 1 - dot/math.Sqrt(qn*nb)
		}
		neighbors[i] = Neighbor{ID: ix.slotIDs[slot], Dist: d}
	}
}

// refRankAllRange is the one-row-at-a-time full scan.
func (ix *Index) refRankAllRange(v []float32, qn float64, neighbors []Neighbor, start, end int) {
	ref := make([]float32, ix.cfg.Dim)
	for s := start; s < end; s++ {
		ix.storedRow(ref, s)
		var dot float64
		for d, x := range v {
			dot += float64(x) * float64(ref[d])
		}
		nb := ix.normsSq[s]
		d := 1.0
		if qn != 0 && nb != 0 {
			d = 1 - dot/math.Sqrt(qn*nb)
		}
		neighbors[s] = Neighbor{ID: ix.slotIDs[s], Dist: d}
	}
}

// refQuery is Query over the reference kernels: every candidate ranked
// exactly, serially, with no screen.
func (ix *Index) refQuery(v []float32, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	keys := make([]uint64, ix.cfg.Tables)
	for t := range keys {
		keys[t] = ix.refHash(t, v)
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	neighbors := ix.refCollectLocked(keys, make([]bool, len(ix.slotIDs)), nil)
	ix.refRankRange(v, normSq(v), neighbors, 0, len(neighbors))
	return append([]Neighbor{}, sortAndTrim(neighbors, k)...)
}

func (ix *Index) refExactNN(v []float32, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	neighbors := make([]Neighbor, len(ix.slotIDs))
	ix.refRankAllRange(v, normSq(v), neighbors, 0, len(neighbors))
	return append([]Neighbor{}, sortAndTrim(neighbors, k)...)
}

// oracleIndex holds n clustered vectors (so buckets are full and
// distances tie: every fifth vector repeats an earlier one under a new
// id, a few are zero, some carry subnormal components or are subnormal
// throughout, some carry a component near MaxFloat32) with a third of
// the ids then removed or replaced, so slot order, id order and bucket
// order all differ. Four copies of one vector right beside each of the
// first three queries, under fresh ids, tie across the k-th place. Three
// bits a table and two probes make most of the index a candidate, so
// above screenCutIn vectors queries are screened. The queries are near
// the clusters, plus a zero one, one with subnormal components and one
// with a component near MaxFloat32.
func oracleIndex(t testing.TB, n, dim, workers int) (*Index, [][]float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	ix := New(Config{Dim: dim, Tables: 6, Bits: 3, Probes: 2, Seed: 13, Workers: workers})
	centers := make([][]float32, 4)
	for c := range centers {
		centers[c] = randomUnit(rng, dim)
	}
	near := func() []float32 {
		v := append([]float32(nil), centers[rng.Intn(len(centers))]...)
		for d := range v {
			v[d] += float32(rng.NormFloat64()) * 0.15
		}
		return v
	}
	sign := func() float32 { return float32(1 - 2*rng.Intn(2)) }
	subnormal := func() float32 { return sign() * math.Float32frombits(uint32(1+rng.Intn(1<<23-1))) }
	huge := func() float32 {
		return sign() * math.Float32frombits(math.Float32bits(math.MaxFloat32)-uint32(rng.Intn(1<<16)))
	}
	withSubnormals := func() []float32 {
		v := near()
		for d := 0; d < dim; d += 3 {
			v[d] = subnormal()
		}
		return v
	}
	withHuge := func() []float32 {
		v := near()
		v[rng.Intn(dim)] = huge()
		return v
	}
	vecs := make([][]float32, n)
	for id := range vecs {
		switch {
		case id%41 == 7:
			vecs[id] = make([]float32, dim)
		case id%5 == 4:
			vecs[id] = vecs[rng.Intn(id)]
		case id%53 == 11:
			vecs[id] = withSubnormals()
		case id%211 == 13:
			vecs[id] = make([]float32, dim)
			for d := range vecs[id] {
				vecs[id][d] = subnormal()
			}
		case id%97 == 17:
			vecs[id] = withHuge()
		default:
			vecs[id] = near()
		}
		ix.Add(id, vecs[id])
	}
	for id := 0; id < n; id += 3 {
		if id%2 == 0 {
			ix.Remove(id)
		} else {
			ix.Add(id, near())
		}
	}
	queries := [][]float32{make([]float32, dim)}
	for i := 0; i < 12; i++ {
		queries = append(queries, near())
	}
	queries = append(queries, withSubnormals(), withHuge())
	for i, q := range queries[1:4] {
		twin := append([]float32(nil), q...)
		for d := range twin {
			twin[d] += float32(rng.NormFloat64()) * 1e-3
		}
		for c := 0; c < 4; c++ {
			ix.Add(n+4*i+c, twin)
		}
	}
	return ix, queries
}

// special draws one of the values a reordered or fused sum gives away:
// ±0, NaN, ±Inf and subnormals.
func special(rng *rand.Rand) float32 {
	sign := float32(1 - 2*rng.Intn(2))
	switch rng.Intn(4) {
	case 0:
		return sign * 0
	case 1:
		return float32(math.NaN())
	case 2:
		return sign * float32(math.Inf(1))
	default:
		return sign * math.Float32frombits(uint32(1+rng.Intn(1<<23-1)))
	}
}

// TestHashAllMatchesReference pins hashAll, sixteen planes per simd.Dot16
// call, to refHash's one-plane scalar loop: plane counts on both sides of
// the 16-plane block (1, 15, 16, 17, 48 and 8 × 64) at dimensions on both
// sides of Dot16's four lanes, planes and queries salted with ±0, NaN,
// ±Inf and subnormals, and a query of signed zeros and subnormals alone.
// The key buffer starts dirty.
func TestHashAllMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	shapes := []struct{ tables, bits int }{{1, 1}, {1, 15}, {3, 5}, {2, 8}, {1, 17}, {8, 6}, {8, 64}}
	for _, dim := range []int{1, 3, 5, 33, 384} {
		for _, sh := range shapes {
			ix := New(Config{Dim: dim, Tables: sh.tables, Bits: sh.bits, Seed: int64(1 + rng.Intn(1000)), Workers: 1})
			for p := 0; p < len(ix.planes)/dim; p += 3 {
				ix.planes[p*dim+rng.Intn(dim)] = special(rng)
			}
			keys := make([]uint64, sh.tables)
			for trial := 0; trial < 12; trial++ {
				v := randomUnit(rng, dim)
				switch {
				case trial == 1:
					for d := range v {
						v[d] = float32(1-2*rng.Intn(2)) * math.Float32frombits(uint32(rng.Intn(1<<23)))
					}
				case trial > 1:
					for i := rng.Intn(3); i > 0; i-- {
						v[rng.Intn(dim)] = special(rng)
					}
				}
				for i := range keys {
					keys[i] = ^uint64(0)
				}
				ix.hashAll(v, keys)
				for tb, key := range keys {
					if want := ix.refHash(tb, v); key != want {
						t.Fatalf("dim %d, %d × %d, trial %d, table %d: hashAll key %#x, refHash %#x",
							dim, sh.tables, sh.bits, trial, tb, key, want)
					}
				}
			}
		}
	}
}

// TestRankRangeMatchesReference pins rankRange, sixteen candidates per
// simd.Dot16 call, to refRankRange's one-row pass for every candidate
// count from 1 to 40 — every remainder of the 16-row block — over the
// oracle index's zero, subnormal and huge rows at a dimension off the four
// lanes, the range starting mid-slice; the entries around it must come
// back untouched.
func TestRankRangeMatchesReference(t *testing.T) {
	ix, queries := oracleIndex(t, 300, 33, 1)
	rng := rand.New(rand.NewSource(75))
	const start, after = 3, 3
	for count := 1; count <= 40; count++ {
		for qi, q := range queries {
			got := make([]Neighbor, start+count+after)
			for i := range got {
				got[i] = Neighbor{ID: -1 - i, Dist: float64(i)}
			}
			for i := start; i < start+count; i++ {
				got[i] = Neighbor{ID: rng.Intn(ix.Len())}
			}
			want := append([]Neighbor(nil), got...)
			qn := normSq(q)
			ix.rankRange(q, qn, got, start, start+count)
			ix.refRankRange(q, qn, want, start, start+count)
			if !sameNeighbors(got, want) {
				t.Fatalf("%d candidates, query %d: rankRange differs from reference:\n got %v\nwant %v", count, qi, got, want)
			}
		}
	}
}

// screenCounts is the candidate count of q and how many of them the
// screen keeps for the k nearest.
func (ix *Index) screenCounts(q []float32, k int) (candidates, kept int) {
	sc := new(scratch)
	sc.keys = make([]uint64, ix.cfg.Tables)
	ix.hashAll(q, sc.keys)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	slots := ix.collectLocked(sc)
	return len(slots), len(ix.screenLocked(q, normSq(q), slots, k, sc))
}

// sameNeighbors is equality of results, bit for bit in the distances,
// except that any NaN equals any NaN: which payload a NaN distance
// carries depends on which dot-product kernel produced it.
func sameNeighbors(got, want []Neighbor) bool {
	if len(got) != len(want) || (got == nil) != (want == nil) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) && !(g.Dist != g.Dist && w.Dist != w.Dist) {
			return false
		}
	}
	return true
}

// requireReference compares Query and ExactNN with refQuery and
// refExactNN on every query at several k, and returns how many
// neighbours were ranked.
func requireReference(t *testing.T, what string, ix *Index, queries [][]float32, ks []int) int {
	t.Helper()
	ranked := 0
	for qi, q := range queries {
		for _, k := range ks {
			got, want := ix.Query(q, k), ix.refQuery(q, k)
			if !sameNeighbors(got, want) {
				t.Fatalf("%s query %d k %d: Query differs from reference:\n got %v\nwant %v", what, qi, k, got, want)
			}
			ranked += len(got)
			if got, want := ix.ExactNN(q, k), ix.refExactNN(q, k); !sameNeighbors(got, want) {
				t.Fatalf("%s query %d k %d: ExactNN differs from reference:\n got %v\nwant %v", what, qi, k, got, want)
			}
		}
	}
	return ranked
}

func TestQueryMatchesReference(t *testing.T) {
	ks := []int{1, 3, 10, 2000}
	for _, workers := range []int{1, 2} {
		ix, queries := oracleIndex(t, 6000, 24, workers)
		screened := 0
		for _, q := range queries {
			if candidates, kept := ix.screenCounts(q, 3); kept < candidates {
				screened++
			}
		}
		if screened < len(queries)/2 {
			t.Fatalf("workers %d: the screen cut only %d of %d queries; the index is too sparse to test it", workers, screened, len(queries))
		}
		what := fmt.Sprintf("workers %d", workers)
		if ranked := requireReference(t, what, ix, queries, ks); ranked < 100 {
			t.Fatalf("%s: only %d neighbours ranked; the index is too sparse to test anything", what, ranked)
		}
		// A NaN row, then an infinite one: the screen stands down while
		// either is stored, and comes back once it is gone.
		nan, inf := queries[1], queries[2]
		nan, inf = append([]float32(nil), nan...), append([]float32(nil), inf...)
		nan[5], inf[7] = float32(math.NaN()), float32(math.Inf(-1))
		for _, bad := range [][]float32{nan, inf} {
			ix.Add(99_999, bad)
			if candidates, kept := ix.screenCounts(queries[1], 3); kept != candidates {
				t.Fatalf("workers %d: with a non-finite row stored the screen kept %d of %d candidates", workers, kept, candidates)
			}
			requireReference(t, fmt.Sprintf("workers %d non-finite row", workers), ix, queries, []int{3})
			ix.Remove(99_999)
		}
		if ix.nonFinite != 0 {
			t.Fatalf("workers %d: %d non-finite rows counted after removing them all", workers, ix.nonFinite)
		}
		if candidates, kept := ix.screenCounts(queries[1], 3); kept == candidates {
			t.Fatalf("workers %d: the screen did not come back after the non-finite rows left", workers)
		}
	}
}

// TestScreenCutIn ranks indexes whose every row is a candidate (one
// table of one bit, probed both ways) just at and just above the
// screen's cut-in: at screenCutIn the screen stands down, one more and it
// runs, and both match the reference.
func TestScreenCutIn(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, n := range []int{screenCutIn, screenCutIn + 1} {
		ix := New(Config{Dim: 8, Tables: 1, Bits: 1, Probes: 1, Seed: 17, Workers: 1})
		for id := 0; id < n; id++ {
			ix.Add(id, randomUnit(rng, 8))
		}
		queries := make([][]float32, 6)
		for i := range queries {
			queries[i] = randomUnit(rng, 8)
		}
		for _, q := range queries {
			candidates, kept := ix.screenCounts(q, 3)
			if candidates != n {
				t.Fatalf("n %d: %d candidates, want every row", n, candidates)
			}
			if screened := kept < candidates; screened != (n > screenCutIn) {
				t.Fatalf("n %d: the screen kept %d of %d candidates", n, kept, candidates)
			}
		}
		requireReference(t, fmt.Sprintf("n %d", n), ix, queries, []int{1, 3, 10})
	}
}

// TestScreenKeepsTiesAtTheBound: zero rows sit at exactly distance 1 with
// the interval [1, 1], so when the query points away from every other
// row the k-th smallest upper end is 1 and the zero rows' lower ends
// equal it. They are the exact top k, and the screen must keep them.
func TestScreenKeepsTiesAtTheBound(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const dim = 8
	q := randomUnit(rng, dim)
	ix := New(Config{Dim: dim, Tables: 1, Bits: 1, Probes: 1, Seed: 19, Workers: 1})
	for id := 0; id < screenCutIn+100; id++ {
		v := make([]float32, dim)
		if id%1000 != 500 { // five zero rows among rows opposite the query
			for d := range v {
				v[d] = -q[d] + float32(rng.NormFloat64())*0.05
			}
		}
		ix.Add(id, v)
	}
	for _, k := range []int{1, 3, 5, 6} {
		if candidates, kept := ix.screenCounts(q, k); kept >= candidates {
			t.Fatalf("k %d: the screen kept all %d candidates", k, candidates)
		}
		requireReference(t, fmt.Sprintf("k %d", k), ix, [][]float32{q}, []int{k})
	}
}

// TestChunkedArena drives indexes of Dim 8 across five arena chunks, with
// one table of one bit probed both ways so that every row is a candidate
// and a query above screenCutIn screens rows in every chunk: it replaces
// and removes ids on both sides of a chunk seam, swap-moves a row from the
// last chunk into the first, empties the last chunk and fills it again.
// After each step every live id's stored row must be the vector last added
// under it, every bucket refHash's, and Query and ExactNN the reference's.
func TestChunkedArena(t *testing.T) {
	const dim = 8
	for _, workers := range []int{1, 2} {
		rng := rand.New(rand.NewSource(76))
		ix := New(Config{Dim: dim, Tables: 1, Bits: 1, Probes: 1, Seed: 31, Workers: workers})
		vecs := map[int][]float32{}
		add := func(id int) {
			vecs[id] = randomUnit(rng, dim)
			if v, ok := vecs[id/3]; ok && id%7 == 3 { // a tie, most often in another chunk
				vecs[id] = v
			}
			ix.Add(id, vecs[id])
		}
		idAt := func(slot int) int {
			ix.mu.RLock()
			defer ix.mu.RUnlock()
			return ix.slotIDs[slot]
		}
		remove := func(id int) {
			ix.Remove(id)
			delete(vecs, id)
		}
		queries := make([][]float32, 4)
		for i := range queries {
			queries[i] = randomUnit(rng, dim)
		}
		check := func(step string) {
			t.Helper()
			what := fmt.Sprintf("workers %d, %s", workers, step)
			ix.mu.RLock()
			if len(ix.slotIDs) != len(vecs) {
				t.Fatalf("%s: %d rows stored, want %d", what, len(ix.slotIDs), len(vecs))
			}
			row := make([]float32, dim)
			entries := 0
			for _, bucket := range ix.tables[0] {
				entries += len(bucket)
			}
			if entries != len(vecs) {
				t.Fatalf("%s: buckets hold %d entries, want %d", what, entries, len(vecs))
			}
			for id, v := range vecs {
				slot := ix.slots[id]
				if ix.slotIDs[slot] != id {
					t.Fatalf("%s: slot %d holds id %d, want %d", what, slot, ix.slotIDs[slot], id)
				}
				for d, x := range ix.storedRow(row, slot) {
					if math.Float32bits(x) != math.Float32bits(v[d]) {
						t.Fatalf("%s: id %d at slot %d stores %v, want %v", what, id, slot, row, v)
					}
				}
				if !slices.Contains(ix.tables[0][ix.refHash(0, v)], slot) {
					t.Fatalf("%s: id %d (slot %d) missing from its refHash bucket", what, id, slot)
				}
			}
			ix.mu.RUnlock()
			for _, q := range queries {
				if candidates, kept := ix.screenCounts(q, 3); candidates != len(vecs) || (kept < candidates) != (len(vecs) > screenCutIn) {
					t.Fatalf("%s: the screen kept %d of %d candidates among %d rows", what, kept, candidates, len(vecs))
				}
			}
			requireReference(t, what, ix, queries, []int{1, 3, 10})
		}

		const n = 4*chunkRows + 40
		for id := 0; id < n; id++ {
			add(id)
		}
		check("filled")
		for _, slot := range []int{chunkRows - 1, chunkRows} {
			add(idAt(slot))
		}
		check("replaced beside the first seam")
		for _, slot := range []int{2*chunkRows - 1, 2 * chunkRows} {
			remove(idAt(slot))
		}
		check("removed beside the second seam")
		moved := idAt(ix.Len() - 1)
		remove(idAt(5))
		if got := idAt(5); got != moved {
			t.Fatalf("workers %d: slot 5 holds id %d after the removal, want %d from the last chunk", workers, got, moved)
		}
		check("swap-moved from the last chunk into the first")
		ix.mu.RLock()
		last := ix.arena[4]
		ix.mu.RUnlock()
		for ix.Len() > 4*chunkRows {
			remove(idAt(ix.Len() - 1))
		}
		ix.mu.RLock()
		if len(ix.arena) != 5 || len(ix.arena[4]) != 0 || cap(ix.arena[4]) != cap(last) {
			t.Fatalf("workers %d: emptied last chunk has length %d and capacity %d of %d, want 0 and %d",
				workers, len(ix.arena[4]), cap(ix.arena[4]), len(ix.arena), cap(last))
		}
		ix.mu.RUnlock()
		check("last chunk emptied")
		for id := n; id < n+10; id++ {
			add(id)
		}
		ix.mu.RLock()
		refilled := unsafe.SliceData(ix.arena[4]) == unsafe.SliceData(last)
		ix.mu.RUnlock()
		if !refilled {
			t.Fatalf("workers %d: refilling the emptied last chunk reallocated it", workers)
		}
		check("last chunk refilled")
	}
}

// fuzzReader hands out the fuzzer's bytes, zeros once they run out.
type fuzzReader []byte

func (r *fuzzReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

// float decodes a class byte and the bytes its class reads: ±0, NaN,
// ±Inf, subnormals, values near MaxFloat32 and raw bits; classes 6 and 7
// draw an ordinary value from rng instead.
func (r *fuzzReader) float(rng *rand.Rand) float32 {
	c := r.next()
	sign := float32(1 - 2*int(c>>7))
	switch c & 7 {
	case 0:
		return sign * 0
	case 1:
		return float32(math.NaN())
	case 2:
		return sign * float32(math.Inf(1))
	case 3:
		return sign * math.Float32frombits(uint32(r.next())|uint32(r.next())<<8|uint32(r.next()&0x7f)<<16)
	case 4:
		return sign * math.Float32frombits(math.Float32bits(math.MaxFloat32)-uint32(r.next()))
	case 5:
		return math.Float32frombits(uint32(r.next()) | uint32(r.next())<<8 | uint32(r.next())<<16 | uint32(r.next())<<24)
	default:
		return float32(rng.NormFloat64())
	}
}

// FuzzQueryMatchesReference decodes an index and a query and compares
// Query and ExactNN with refQuery and refExactNN bit for bit. The index
// is screenCutIn plus up to 255 Gaussian rows of up to 16 dimensions
// over one to three tables of up to three bits — so queries usually
// screen — then up to 31 decoded rows added under new or existing ids
// and a few ids removed; the query is decoded the same way.
func FuzzQueryMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 40, 2, 1, 3, 8, 6, 6, 6, 6, 6, 6, 6, 6, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{15, 200, 0, 2, 1, 0x83, 9, 0, 2, 0x84, 0, 3, 1, 2, 3, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzReader(data)
		dim := 1 + int(r.next())%16
		n := screenCutIn + int(r.next())
		cfg := Config{Dim: dim, Tables: 1 + int(r.next())%3, Bits: 1 + int(r.next())%3, Probes: 1 + int(r.next())%2, Seed: int64(r.next()), Workers: 1 + int(r.next())%2}
		ix := New(cfg)
		rng := rand.New(rand.NewSource(int64(n)))
		for id := 0; id < n; id++ {
			ix.Add(id, randomUnit(rng, dim))
		}
		decode := func() []float32 {
			v := make([]float32, dim)
			for d := range v {
				v[d] = r.float(rng)
			}
			return v
		}
		for i, extra := 0, int(r.next())%32; i < extra; i++ {
			ix.Add(int(r.next())*int(r.next()), decode())
		}
		for i, removes := 0, int(r.next())%8; i < removes; i++ {
			ix.Remove(int(r.next()) * 17)
		}
		q := decode()
		k := 1 + int(r.next())%12
		if got, want := ix.Query(q, k), ix.refQuery(q, k); !sameNeighbors(got, want) {
			t.Fatalf("cfg %+v k %d: Query differs from reference:\n got %v\nwant %v", cfg, k, got, want)
		}
		if got, want := ix.ExactNN(q, k), ix.refExactNN(q, k); !sameNeighbors(got, want) {
			t.Fatalf("cfg %+v k %d: ExactNN differs from reference:\n got %v\nwant %v", cfg, k, got, want)
		}
	})
}

// Queries racing Add and Remove (which swap-move slots under them) must
// stay consistent: a free-running reader gives the race detector its
// chance, and a second reader that holds the writer off for the length of
// one comparison checks Query against the reference on whatever layout
// the churn has produced. At 6000 vectors the queries are screened.
func TestQueryMatchesReferenceUnderChurn(t *testing.T) {
	const n, dim = 6000, 24
	ix, queries := oracleIndex(t, n, dim, 2)
	var gate sync.Mutex // held by the writer per mutation, by the checker per comparison
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer: churn ids n..n+63 and replace live ones
		defer wg.Done()
		rng := rand.New(rand.NewSource(5))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			gate.Lock()
			if id := n + rng.Intn(64); i%3 == 2 {
				ix.Remove(id)
			} else {
				ix.Add(id, queries[1+rng.Intn(len(queries)-1)])
			}
			gate.Unlock()
		}
	}()
	go func() { // free-running reader
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, nb := range ix.Query(queries[i%len(queries)], 5) {
				if math.IsNaN(nb.Dist) {
					t.Error("NaN distance under churn")
					return
				}
			}
		}
	}()
	for i := 0; i < 200; i++ {
		q := queries[i%len(queries)]
		gate.Lock()
		got, want := ix.Query(q, 7), ix.refQuery(q, 7)
		gate.Unlock()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("comparison %d: Query differs from reference under churn", i)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// referenceSortAndTrim is the pre-quickselect implementation kept as the
// equality oracle.
func referenceSortAndTrim(neighbors []Neighbor, k int) []Neighbor {
	sort.Slice(neighbors, func(i, j int) bool {
		if neighbors[i].Dist != neighbors[j].Dist {
			return neighbors[i].Dist < neighbors[j].Dist
		}
		return neighbors[i].ID < neighbors[j].ID
	})
	if len(neighbors) > k {
		neighbors = neighbors[:k]
	}
	return neighbors
}

// TestSortAndTrimMatchesFullSort regresses the quickselect top-k against
// the full sort it replaced, including duplicate distances (tie-broken
// by ID) and every boundary k.
func TestSortAndTrimMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(400)
		base := make([]Neighbor, n)
		for i := range base {
			// Quantized distances force ties so the ID tiebreak is hit.
			base[i] = Neighbor{ID: i, Dist: float64(rng.Intn(50)) / 50}
		}
		rng.Shuffle(n, func(i, j int) { base[i], base[j] = base[j], base[i] })
		for _, k := range []int{0, 1, 2, n / 2, n - 1, n, n + 10} {
			if k < 0 {
				continue
			}
			got := sortAndTrim(append([]Neighbor(nil), base...), k)
			want := referenceSortAndTrim(append([]Neighbor(nil), base...), k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d k=%d: quickselect diverges from full sort\n got %v\nwant %v", n, k, got, want)
			}
		}
	}
}
