package lsh

// Exact-equality oracles for the query path. The ref functions are the
// kernels as they stood before candidates were listed in slot order and
// ranked four arena rows per sweep; refQuery and refExactNN assemble them
// the way Query and ExactNN did, serially.

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

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
	dim := ix.cfg.Dim
	for i := start; i < end; i++ {
		slot := neighbors[i].ID
		ref := ix.arena[slot*dim : (slot+1)*dim]
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
	dim := ix.cfg.Dim
	for s := start; s < end; s++ {
		ref := ix.arena[s*dim : (s+1)*dim]
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

// refQuery is Query over the reference kernels, with preRankLocked's
// selection written out serially.
func (ix *Index) refQuery(v []float32, k int) []Neighbor {
	if k <= 0 {
		return nil
	}
	keys := make([]uint64, ix.cfg.Tables)
	for t := range keys {
		keys[t] = ix.Hash(t, v)
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	neighbors := ix.refCollectLocked(keys, make([]bool, len(ix.slotIDs)), nil)
	if keep := int(ix.preRank.Load()) * k; keep > 0 && keep < len(neighbors) {
		qs := make([]uint64, ix.sketchWords)
		packSketch(qs, keys, ix.cfg.Bits)
		ix.hammingRange(qs, neighbors, 0, len(neighbors))
		neighbors = sortAndTrim(neighbors, keep)
	}
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
// id, a few are zero) with a third of the ids then removed or replaced,
// so slot order, id order and bucket order all differ.
func oracleIndex(t testing.TB, n, dim, workers int) (*Index, [][]float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	ix := New(Config{Dim: dim, Tables: 6, Bits: 5, Probes: 2, Seed: 13, Workers: workers})
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
	vecs := make([][]float32, n)
	for id := range vecs {
		switch {
		case id%41 == 7:
			vecs[id] = make([]float32, dim)
		case id%5 == 4:
			vecs[id] = vecs[rng.Intn(id)]
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
	return ix, queries
}

func TestQueryMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ix, queries := oracleIndex(t, 1500, 24, workers)
		for _, preRank := range []int{0, 4} {
			ix.SetPreRank(preRank)
			ranked := 0
			for _, q := range queries {
				for _, k := range []int{1, 3, 10, 2000} {
					got, want := ix.Query(q, k), ix.refQuery(q, k)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("workers %d preRank %d k %d: Query differs from reference:\n got %v\nwant %v", workers, preRank, k, got, want)
					}
					ranked += len(got)
					if got, want := ix.ExactNN(q, k), ix.refExactNN(q, k); !reflect.DeepEqual(got, want) {
						t.Fatalf("workers %d k %d: ExactNN differs from reference", workers, k)
					}
				}
			}
			if ranked < 100 {
				t.Fatalf("workers %d preRank %d: only %d neighbours ranked; the index is too sparse to test anything", workers, preRank, ranked)
			}
		}
	}
}

// Queries racing Add and Remove (which swap-move slots under them) must
// stay consistent: a free-running reader gives the race detector its
// chance, and a second reader that holds the writer off for the length of
// one comparison checks Query against the reference on whatever layout
// the churn has produced.
func TestQueryMatchesReferenceUnderChurn(t *testing.T) {
	const n, dim = 600, 24
	for _, preRank := range []int{0, 4} {
		ix, queries := oracleIndex(t, n, dim, 2)
		ix.SetPreRank(preRank)
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
				t.Errorf("preRank %d comparison %d: Query differs from reference under churn", preRank, i)
				break
			}
		}
		close(stop)
		wg.Wait()
	}
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
