package lsh

import (
	"math/rand"
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
			ix.rankLocked(q, neighbors)
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
// arena row survives. (Its third leg, a sharded Resize, went with the
// sharded index.)
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
}

// TestPreRankDegeneratesToExact pins the contract that a PreRank·k cut
// at or beyond the candidate count is exact mode: results are identical
// (IDs and bit-identical distances) to PreRank=0 on the same index.
func TestPreRankDegeneratesToExact(t *testing.T) {
	ix, _ := kernelIndex(t, 47, 200, 16, Config{Tables: 6, Bits: 6, Probes: 2, Seed: 11, Workers: 1})
	rng := rand.New(rand.NewSource(48))
	const k = 10
	for trial := 0; trial < 20; trial++ {
		q := randomUnit(rng, 16)
		ix.SetPreRank(0)
		exact := ix.Query(q, k)
		// 200 stored items bound the candidate set, so PreRank·k = 1000
		// can never trim: the pre-rank pass must pass candidates through.
		ix.SetPreRank(100)
		got := ix.Query(q, k)
		if len(got) != len(exact) {
			t.Fatalf("degenerate PreRank returned %d results, exact %d", len(got), len(exact))
		}
		for i := range exact {
			if got[i] != exact[i] {
				t.Fatalf("degenerate PreRank result %d = %+v, exact %+v", i, got[i], exact[i])
			}
		}
	}
	ix.SetPreRank(0)
}

// TestPreRankRecall measures recall@10 of Hamming pre-ranking at the
// recommended default budget (PreRank=4, ≥96-bit sketch) against
// exact-mode Query on a clustered reference set modeling recognition
// traffic: each object contributes a tight cluster of reference views
// (per-coordinate noise 0.05, a ~22° angular spread at dim 64) and
// queries are new views of known objects. The 0.95 floor is the
// acceptance criterion for the default setting; the sweep itself lives
// in BenchmarkKernelPreRank.
func TestPreRankRecall(t *testing.T) {
	const dim, n, k = 64, 4000, 10
	rng := rand.New(rand.NewSource(49))
	ix := New(Config{Dim: dim, Tables: 8, Bits: 12, Probes: 2, Seed: 13, Workers: 1})
	base := make([][]float32, n/10)
	for i := range base {
		base[i] = randomUnit(rng, dim)
	}
	for id := 0; id < n; id++ {
		ix.Add(id, perturb(rng, base[id%len(base)], 0.05))
	}
	hits, total := 0, 0
	for trial := 0; trial < 50; trial++ {
		q := perturb(rng, base[trial%len(base)], 0.03)
		ix.SetPreRank(0)
		exact := ix.Query(q, k)
		ix.SetPreRank(4)
		got := ix.Query(q, k)
		want := make(map[int]struct{}, len(exact))
		for _, nb := range exact {
			want[nb.ID] = struct{}{}
		}
		for _, nb := range got {
			if _, ok := want[nb.ID]; ok {
				hits++
			}
		}
		total += len(exact)
	}
	ix.SetPreRank(0)
	recall := float64(hits) / float64(total)
	if recall < 0.95 {
		t.Fatalf("PreRank=4 recall@%d = %.3f, want >= 0.95", k, recall)
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
		ix.rankLocked(q, neighbors)
	})
	if allocs != 0 {
		t.Fatalf("rankLocked allocates %.1f per run, want 0", allocs)
	}
}

// TestExactNNAllocBudget enforces the pooled-scratch contract on
// ExactNN: after warmup, a query allocates only the escaping top-k copy
// and the fixed sort bookkeeping — a constant budget independent of
// index size (the old path allocated an index-sized candidate slice
// every call).
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
	// What matters is that it does not grow with index size. Since the
	// query scratch is pooled whole, the measured constant is the
	// escaping top-k copy alone; the bound keeps its old headroom.
	if allocs > 6 {
		t.Fatalf("ExactNN allocates %.1f per run, want <= 6 (pooled scratch)", allocs)
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

// FuzzSketchMatchesHash differentially pins the packed-sketch encoding:
// for any (dim, tables, bits, seed) and any vector, the key unpacked
// from the Add-time sketch of table t must equal Index.Hash(t, v). This
// is what lets Remove recover bucket keys from sketches without
// re-hashing, and what makes Hamming distance over sketches equal the
// per-table key Hamming distance.
func FuzzSketchMatchesHash(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(6), uint8(16))
	f.Add(int64(99), uint8(3), uint8(64), uint8(5))
	f.Add(int64(-7), uint8(1), uint8(1), uint8(1))
	f.Add(int64(1234), uint8(13), uint8(31), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, tables, bits, dim uint8) {
		cfg := Config{
			Dim:    int(dim%48) + 1,
			Tables: int(tables%16) + 1,
			Bits:   int(bits%64) + 1,
			Seed:   seed,
		}
		ix := New(cfg)
		rng := rand.New(rand.NewSource(seed ^ 0x5bf0))
		v := make([]float32, cfg.Dim)
		for d := range v {
			v[d] = float32(rng.NormFloat64())
		}
		ix.Add(0, v)
		ix.mu.RLock()
		sketch := append([]uint64(nil), ix.sketches[:ix.sketchWords]...)
		ix.mu.RUnlock()
		for t2 := 0; t2 < cfg.Tables; t2++ {
			if got, want := unpackKey(sketch, t2, cfg.Bits), ix.Hash(t2, v); got != want {
				t.Fatalf("cfg=%+v table %d: unpacked key %x, Hash %x", cfg, t2, got, want)
			}
		}
	})
}
