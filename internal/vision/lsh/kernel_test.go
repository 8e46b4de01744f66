package lsh

import (
	"math/rand"
	"slices"
	"testing"
)

// kernelIndex builds a Workers=1 index over n random unit vectors and
// returns it with the raw vectors for oracle distance checks.
func kernelIndex(t testing.TB, seed int64, n, dim int, cfg Config) (*Index, [][]float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg.Dim = dim
	ix := New(cfg)
	vecs := make([][]float32, n)
	for id := range vecs {
		vecs[id] = randomUnit(rng, dim)
		ix.Add(id, vecs[id])
	}
	return ix, vecs
}

// TestRankMatchesCosineOracle pins the SoA rank kernel (hoisted query
// norm, Add-time cached reference norms, one dot pass over the arena) to
// CosineDistance over the original vectors — exact float64 equality, the
// bit-identity contract of the layout change.
func TestRankMatchesCosineOracle(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ix, vecs := kernelIndex(t, 41, 300, 24,
			Config{Tables: 6, Bits: 10, Probes: 2, Seed: 5, Workers: workers})
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 20; trial++ {
			q := randomUnit(rng, 24)
			neighbors := make([]Neighbor, len(vecs))
			for id := range vecs {
				neighbors[id] = Neighbor{ID: id}
			}
			ix.mu.RLock()
			ix.rankLocked(q, normSq(q), neighbors)
			ix.mu.RUnlock()
			for _, nb := range neighbors {
				want := CosineDistance(q, vecs[nb.ID])
				if nb.Dist != want {
					t.Fatalf("workers=%d: rankLocked dist for id %d = %v, CosineDistance = %v",
						workers, nb.ID, nb.Dist, want)
				}
			}
			// The full-scan path must agree bit for bit too.
			for _, nb := range ix.ExactNN(q, 10) {
				if want := CosineDistance(q, vecs[nb.ID]); nb.Dist != want {
					t.Fatalf("workers=%d: ExactNN dist for id %d = %v, CosineDistance = %v",
						workers, nb.ID, nb.Dist, want)
				}
			}
		}
	}
}

// TestRankZeroVectors covers the undefined-angle rule with the cached
// norms: a zero reference or a zero query must rank at distance 1,
// exactly as CosineDistance defines.
func TestRankZeroVectors(t *testing.T) {
	ix, vecs := kernelIndex(t, 43, 20, 8, Config{Tables: 4, Bits: 6, Seed: 3, Workers: 1})
	zero := make([]float32, 8)
	ix.Add(len(vecs), zero)

	res := ix.ExactNN(zero, len(vecs)+1)
	if len(res) != len(vecs)+1 {
		t.Fatalf("ExactNN returned %d results, want %d", len(res), len(vecs)+1)
	}
	for _, nb := range res {
		if nb.Dist != 1 {
			t.Fatalf("zero query: dist to id %d = %v, want exactly 1", nb.ID, nb.Dist)
		}
	}
	q := randomUnit(rand.New(rand.NewSource(44)), 8)
	for _, nb := range ix.ExactNN(q, len(vecs)+1) {
		want := 1.0
		if nb.ID < len(vecs) {
			want = CosineDistance(q, vecs[nb.ID])
		}
		if nb.Dist != want {
			t.Fatalf("dist to id %d = %v, want %v", nb.ID, nb.Dist, want)
		}
	}
}

// TestNormCacheInvalidation exercises every path that moves or replaces
// arena slots — Add-replace (same id, new vector) and Remove (swap-move
// of the last slot into the hole) — and checks distances stay exactly
// CosineDistance of the live vectors, i.e. no stale cached norm or stale
// arena row survives. It then checks the buckets against refHash: every
// live id's slot sits in the bucket refHash gives for each table, and the
// buckets hold Len()·Tables entries in all, so no stale slot survives
// either — which the oracles, reading the same buckets Query reads,
// cannot see.
// (Its third leg, a sharded Resize, went with the sharded index.)
func TestNormCacheInvalidation(t *testing.T) {
	const dim, n = 16, 60
	ix, vecs := kernelIndex(t, 45, n, dim, Config{Tables: 4, Bits: 8, Seed: 7, Workers: 1})
	rng := rand.New(rand.NewSource(46))

	// Replace a third of the ids in place (Add with an existing id).
	for id := 0; id < n; id += 3 {
		vecs[id] = randomUnit(rng, dim)
		ix.Add(id, vecs[id])
	}
	// Remove another third — each removal swap-moves the last slot.
	for id := 1; id < n; id += 3 {
		ix.Remove(id)
		vecs[id] = nil
	}
	q := randomUnit(rng, dim)
	got := ix.ExactNN(q, n)
	live := 0
	for _, v := range vecs {
		if v != nil {
			live++
		}
	}
	if len(got) != live {
		t.Fatalf("got %d results, want %d live ids", len(got), live)
	}
	for _, nb := range got {
		if vecs[nb.ID] == nil {
			t.Fatalf("removed id %d still ranked", nb.ID)
		}
		if want := CosineDistance(q, vecs[nb.ID]); nb.Dist != want {
			t.Fatalf("id %d dist = %v, want %v (stale norm or arena row)", nb.ID, nb.Dist, want)
		}
	}

	ix.mu.RLock()
	defer ix.mu.RUnlock()
	entries := 0
	for tb := range ix.tables {
		for _, bucket := range ix.tables[tb] {
			entries += len(bucket)
		}
	}
	if want := len(ix.slotIDs) * ix.cfg.Tables; entries != want {
		t.Fatalf("buckets hold %d entries, want Len()·Tables = %d", entries, want)
	}
	for id, v := range vecs {
		if v == nil {
			continue
		}
		slot := ix.slots[id]
		for tb := range ix.tables {
			if !slices.Contains(ix.tables[tb][ix.refHash(tb, v)], slot) {
				t.Fatalf("table %d: id %d (slot %d) missing from its refHash bucket", tb, id, slot)
			}
		}
	}
}

// TestRankLockedNoAllocs enforces the 0 allocs/op budget on the serial
// ranking kernel — the per-candidate hot loop every query pays.
func TestRankLockedNoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ix, _ := kernelIndex(t, 52, 500, 16, Config{Tables: 4, Bits: 6, Seed: 19, Workers: 1})
	q := randomUnit(rand.New(rand.NewSource(53)), 16)
	neighbors := make([]Neighbor, 500)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	allocs := testing.AllocsPerRun(100, func() {
		for j := range neighbors {
			neighbors[j] = Neighbor{ID: j}
		}
		ix.rankLocked(q, normSq(q), neighbors)
	})
	if allocs != 0 {
		t.Fatalf("rankLocked allocates %.1f per run, want 0", allocs)
	}
}

// TestExactNNAllocBudget enforces the pooled-scratch contract on
// ExactNN: after warmup, a query allocates only the escaping top-k copy,
// independent of index size (the old path allocated an index-sized
// candidate slice every call).
func TestExactNNAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	ix, _ := kernelIndex(t, 54, 2000, 16, Config{Tables: 4, Bits: 6, Seed: 23, Workers: 1})
	q := randomUnit(rand.New(rand.NewSource(55)), 16)
	ix.ExactNN(q, 10) // warm the pool
	allocs := testing.AllocsPerRun(50, func() {
		ix.ExactNN(q, 10)
	})
	if allocs != 1 {
		t.Fatalf("ExactNN allocates %.1f per run, want 1 (its result)", allocs)
	}
}

// TestQueryAllocBudget: after warm-up, a screened query on the serial
// path allocates only its result — the hashing, the bitset collect, the
// screen, the exact pass and the top-k selection all run in pooled
// scratch.
func TestQueryAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	// One table of one bit, probed both ways: every row is a candidate.
	ix, _ := kernelIndex(t, 56, 2*screenCutIn, 16, Config{Tables: 1, Bits: 1, Probes: 1, Seed: 29, Workers: 1})
	q := randomUnit(rand.New(rand.NewSource(57)), 16)
	if candidates, kept := ix.screenCounts(q, 3); kept >= candidates {
		t.Fatalf("the screen kept %d of %d candidates; this query is not screened", kept, candidates)
	}
	ix.Query(q, 3) // warm the pool
	if allocs := testing.AllocsPerRun(50, func() { ix.Query(q, 3) }); allocs != 1 {
		t.Fatalf("a screened Query allocates %.1f per run, want 1 (its result)", allocs)
	}
}
