package lsh

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomUnit(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	var norm float64
	for i := range v {
		x := rng.NormFloat64()
		v[i] = float32(x)
		norm += x * x
	}
	norm = math.Sqrt(norm)
	for i := range v {
		v[i] = float32(float64(v[i]) / norm)
	}
	return v
}

func perturb(rng *rand.Rand, v []float32, eps float64) []float32 {
	out := make([]float32, len(v))
	var norm float64
	for i := range v {
		x := float64(v[i]) + rng.NormFloat64()*eps
		out[i] = float32(x)
		norm += x * x
	}
	norm = math.Sqrt(norm)
	for i := range out {
		out[i] = float32(float64(out[i]) / norm)
	}
	return out
}

func TestNewPanics(t *testing.T) {
	for _, cfg := range []Config{{Dim: 0}, {Dim: -1}, {Dim: 4, Bits: 65}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestAddQueryExactMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ix := New(Config{Dim: 16, Seed: 1})
	vecs := make([][]float32, 50)
	for i := range vecs {
		vecs[i] = randomUnit(rng, 16)
		ix.Add(i, vecs[i])
	}
	if ix.Len() != 50 {
		t.Fatalf("Len = %d, want 50", ix.Len())
	}
	// Querying with a stored vector must return it first at distance ~0.
	for i := 0; i < 10; i++ {
		res := ix.Query(vecs[i], 3)
		if len(res) == 0 {
			t.Fatalf("query %d returned nothing", i)
		}
		if res[0].ID != i {
			t.Errorf("query %d: top result = %d", i, res[0].ID)
		}
		if res[0].Dist > 1e-6 {
			t.Errorf("query %d: self distance = %v", i, res[0].Dist)
		}
	}
}

func TestQueryRanksByDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ix := New(Config{Dim: 8, Seed: 2})
	for i := 0; i < 100; i++ {
		ix.Add(i, randomUnit(rng, 8))
	}
	res := ix.Query(randomUnit(rng, 8), 20)
	for i := 1; i < len(res); i++ {
		if res[i].Dist < res[i-1].Dist {
			t.Fatalf("results not sorted at %d: %v < %v", i, res[i].Dist, res[i-1].Dist)
		}
	}
}

func TestRecallAgainstExact(t *testing.T) {
	// LSH with a healthy table/probe budget should find the true nearest
	// neighbour most of the time for clustered data.
	rng := rand.New(rand.NewSource(3))
	ix := New(Config{Dim: 32, Tables: 12, Bits: 10, Probes: 3, Seed: 3})
	base := make([][]float32, 20)
	id := 0
	for i := range base {
		base[i] = randomUnit(rng, 32)
		for j := 0; j < 10; j++ {
			ix.Add(id, perturb(rng, base[i], 0.05))
			id++
		}
	}
	hits := 0
	const queries = 50
	for q := 0; q < queries; q++ {
		query := perturb(rng, base[q%len(base)], 0.05)
		exact := ix.ExactNN(query, 1)
		approx := ix.Query(query, 1)
		if len(approx) > 0 && len(exact) > 0 && approx[0].ID == exact[0].ID {
			hits++
		}
	}
	if recall := float64(hits) / queries; recall < 0.7 {
		t.Errorf("recall@1 = %v, want >= 0.7", recall)
	}
}

func TestRemove(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ix := New(Config{Dim: 8, Seed: 4})
	v := randomUnit(rng, 8)
	ix.Add(1, v)
	ix.Add(2, randomUnit(rng, 8))
	ix.Remove(1)
	if ix.Len() != 1 {
		t.Fatalf("Len after remove = %d", ix.Len())
	}
	for _, n := range ix.Query(v, 10) {
		if n.ID == 1 {
			t.Error("removed id still returned by Query")
		}
	}
	ix.Remove(99) // absent: no-op, must not panic
}

func TestAddReplaces(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ix := New(Config{Dim: 8, Seed: 5})
	ix.Add(7, randomUnit(rng, 8))
	v2 := randomUnit(rng, 8)
	ix.Add(7, v2)
	if ix.Len() != 1 {
		t.Fatalf("Len after replace = %d, want 1", ix.Len())
	}
	res := ix.Query(v2, 1)
	if len(res) != 1 || res[0].ID != 7 || res[0].Dist > 1e-6 {
		t.Errorf("replaced vector not found: %+v", res)
	}
}

func TestAddCopiesVector(t *testing.T) {
	ix := New(Config{Dim: 2, Seed: 6})
	v := []float32{1, 0}
	ix.Add(0, v)
	v[0] = -1 // mutate caller's slice
	res := ix.Query([]float32{1, 0}, 1)
	if len(res) != 1 || res[0].Dist > 1e-6 {
		t.Error("index shares storage with caller's slice")
	}
}

func TestCosineDistance(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	if d := CosineDistance(a, b); math.Abs(d-1) > 1e-9 {
		t.Errorf("orthogonal distance = %v, want 1", d)
	}
	if d := CosineDistance(a, a); math.Abs(d) > 1e-9 {
		t.Errorf("self distance = %v, want 0", d)
	}
	c := []float32{-1, 0}
	if d := CosineDistance(a, c); math.Abs(d-2) > 1e-9 {
		t.Errorf("opposite distance = %v, want 2", d)
	}
	z := []float32{0, 0}
	if d := CosineDistance(a, z); d != 1 {
		t.Errorf("zero-vector distance = %v, want 1", d)
	}
}

// tableKey is the bucket key hashAll gives v in table t.
func tableKey(ix *Index, t int, v []float32) uint64 {
	keys := make([]uint64, ix.cfg.Tables)
	ix.hashAll(v, keys)
	return keys[t]
}

func TestHashDeterministicAndScaleInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix := New(Config{Dim: 16, Seed: 7})
	v := randomUnit(rng, 16)
	h1 := tableKey(ix, 0, v)
	h2 := tableKey(ix, 0, v)
	if h1 != h2 {
		t.Error("Hash not deterministic")
	}
	// Positive scaling must not change hyperplane signs.
	scaled := make([]float32, len(v))
	for i := range v {
		scaled[i] = v[i] * 42
	}
	if tableKey(ix, 0, scaled) != h1 {
		t.Error("Hash changed under positive scaling")
	}
}

func TestQueryZeroK(t *testing.T) {
	ix := New(Config{Dim: 4, Seed: 8})
	ix.Add(0, []float32{1, 0, 0, 0})
	if res := ix.Query([]float32{1, 0, 0, 0}, 0); res != nil {
		t.Errorf("Query k=0 = %v, want nil", res)
	}
	if res := ix.ExactNN([]float32{1, 0, 0, 0}, -1); res != nil {
		t.Errorf("ExactNN k<0 = %v, want nil", res)
	}
}

// Property: hamming distance of hashes grows (weakly) with angle. We test
// the monotone trend statistically: tiny perturbations produce fewer
// flipped bits on average than large ones.
func TestHashLocalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ix := New(Config{Dim: 32, Tables: 1, Bits: 64, Seed: 9})
	flips := func(eps float64) float64 {
		total := 0
		const trials = 60
		for i := 0; i < trials; i++ {
			v := randomUnit(rng, 32)
			w := perturb(rng, v, eps)
			x := tableKey(ix, 0, v) ^ tableKey(ix, 0, w)
			for ; x != 0; x &= x - 1 {
				total++
			}
		}
		return float64(total) / trials
	}
	small := flips(0.01)
	large := flips(0.5)
	if small >= large {
		t.Errorf("bit flips: eps=0.01 -> %v, eps=0.5 -> %v; want monotone increase", small, large)
	}
}

// Property: Query never returns more than k results, never duplicates IDs,
// and all distances are within [0, 2].
func TestQueryInvariantsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ix := New(Config{Dim: 8, Seed: 10})
	for i := 0; i < 60; i++ {
		ix.Add(i, randomUnit(rng, 8))
	}
	f := func(seed int64, kRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := int(kRaw)%10 + 1
		res := ix.Query(randomUnit(r, 8), k)
		if len(res) > k {
			return false
		}
		ids := make(map[int]bool)
		for _, n := range res {
			if ids[n.ID] || n.Dist < -1e-9 || n.Dist > 2+1e-9 {
				return false
			}
			ids[n.ID] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Regression test for hyperplane seeding: the same seed must produce
// identical hash tables on every construction, at any worker count, and
// independently of any other package's RNG draws. (The hyperplanes used to
// come from one sequential RNG stream; per-table streams seeded from the
// config make construction parallel-safe and reproducible.)
func TestSameSeedIdenticalTables(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	vecs := make([][]float32, 40)
	for i := range vecs {
		vecs[i] = randomUnit(rng, 24)
	}
	build := func(workers int) *Index {
		ix := New(Config{Dim: 24, Tables: 6, Bits: 12, Seed: 77, Workers: workers})
		for i, v := range vecs {
			ix.Add(i, v)
		}
		return ix
	}
	ref := build(1)
	// Interleave draws from the global source to prove independence.
	rand.Int63()
	for _, workers := range []int{1, 4, 8} {
		ix := build(workers)
		for p := range ref.planes {
			if ix.planes[p] != ref.planes[p] {
				t.Fatalf("workers=%d: plane matrix differs at flat index %d", workers, p)
			}
		}
		for ti := range ref.tables {
			if len(ix.tables[ti]) != len(ref.tables[ti]) {
				t.Fatalf("workers=%d: table %d has %d buckets, want %d",
					workers, ti, len(ix.tables[ti]), len(ref.tables[ti]))
			}
			for key, bucket := range ref.tables[ti] {
				got := ix.tables[ti][key]
				if len(got) != len(bucket) {
					t.Fatalf("workers=%d: bucket %d/%x size %d, want %d",
						workers, ti, key, len(got), len(bucket))
				}
				for i := range bucket {
					if got[i] != bucket[i] {
						t.Fatalf("workers=%d: bucket %d/%x differs at %d", workers, ti, key, i)
					}
				}
			}
		}
	}
}

// Parallel kernel contract: Query and ExactNN return identical rankings at
// any worker count.
func TestQueryParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// Tables*Bits*Dim above the serial-hash cutoff so the parallel path runs.
	mk := func(workers int) *Index {
		return New(Config{Dim: 1024, Tables: 8, Bits: 16, Seed: 21, Workers: workers})
	}
	serial := mk(1)
	wide := mk(8)
	for i := 0; i < 200; i++ {
		v := randomUnit(rng, 1024)
		serial.Add(i, v)
		wide.Add(i, v)
	}
	for q := 0; q < 20; q++ {
		v := randomUnit(rng, 1024)
		a, b := serial.Query(v, 7), wide.Query(v, 7)
		if len(a) != len(b) {
			t.Fatalf("query %d: %d vs %d results", q, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d result %d: %+v vs %+v", q, i, a[i], b[i])
			}
		}
		ea, eb := serial.ExactNN(v, 7), wide.ExactNN(v, 7)
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("exact %d result %d: %+v vs %+v", q, i, ea[i], eb[i])
			}
		}
	}
}

// BenchmarkBuild500 measures bulk index construction (hashing dominates);
// compare with -cpu 1,4,8.
func BenchmarkBuild500(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	vecs := make([][]float32, 500)
	for i := range vecs {
		vecs[i] = randomUnit(rng, 512)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := New(Config{Dim: 512, Tables: 8, Bits: 16, Seed: 12})
		for id, v := range vecs {
			ix.Add(id, v)
		}
	}
}

func BenchmarkQuery1000(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	ix := New(Config{Dim: 64, Seed: 11})
	for i := 0; i < 1000; i++ {
		ix.Add(i, randomUnit(rng, 64))
	}
	q := randomUnit(rng, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Query(q, 5)
	}
}

// CosineDistance returns 1 - cos(a, b), in [0, 2], in one fused loop:
// the reference the ranking kernels must match bit for bit. Zero vectors are at
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
