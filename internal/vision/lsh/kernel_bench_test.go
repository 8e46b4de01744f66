package lsh

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"
)

// Kernel benchmarks isolate the recognition hot path's distance kernels
// from bucket probing and sorting, at the candidate counts the paper's
// recognition tier sees at scale (vision.lsh.query_ms on the ledger is
// the same path at the deployed size). Workers is pinned to 1 so the
// rows measure single-core kernel cost, not pool scaling — that is the
// per-node client ceiling the orchestrator divides by.

const kernelBenchDim = 64

func kernelBenchIndex(b *testing.B, n int) (*Index, [][]float32) {
	b.Helper()
	rng := rand.New(rand.NewSource(int64(n) + 100))
	ix := New(Config{Dim: kernelBenchDim, Tables: 8, Bits: 6, Probes: 2, Seed: 9, Workers: 1})
	for id := 0; id < n; id++ {
		ix.Add(id, randomUnit(rng, kernelBenchDim))
	}
	queries := make([][]float32, 16)
	for q := range queries {
		queries[q] = randomUnit(rng, kernelBenchDim)
	}
	return ix, queries
}

// BenchmarkKernelRank measures exact-mode candidate ranking — the cosine
// distance pass rankLocked runs over every candidate — at 10k and 100k
// candidates (every stored item made a candidate, the dense-bucket
// worst case).
func BenchmarkKernelRank(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		ix, queries := kernelBenchIndex(b, n)
		neighbors := make([]Neighbor, n)
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			ix.mu.RLock()
			defer ix.mu.RUnlock()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range neighbors {
					neighbors[j] = Neighbor{ID: j}
				}
				q := queries[i%len(queries)]
				ix.rankLocked(q, normSq(q), neighbors)
			}
		})
	}
}

// BenchmarkKernelQuery measures the full single-query path (hash, probe,
// rank, top-k) on the dense-bucket index, where ranking dominates, and on
// an index of bigdb-100k's shape: 100 003 Gaussian rows of 384 floats (a
// 154 MB arena in 98 chunks, so a query's ~32 k candidates come from
// memory, not cache), Tables 8, Bits 6, Probes 2, k 3 and the pool at
// GOMAXPROCS, as the lsh service runs it. That index is built before the
// timer starts.
func BenchmarkKernelQuery(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		ix, queries := kernelBenchIndex(b, n)
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix.Query(queries[i%len(queries)], 10)
			}
		})
	}
	b.Run("bigdb-100k", func(b *testing.B) {
		ix := buildBigdb(bigdbVectors())
		rng := rand.New(rand.NewSource(302))
		queries := make([][]float32, 16)
		for q := range queries {
			queries[q] = gauss(rng, make([]float32, bigdbDim))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ix.Query(queries[i%len(queries)], 3)
		}
	})
}

// BenchmarkKernelBuild measures building bigdb-100k's index — what each
// set-up of that workload pays to pad its database — from vectors drawn
// before the timer starts: ns per added row, and bytes allocated per
// build.
func BenchmarkKernelBuild(b *testing.B) {
	b.Run("bigdb-100k", func(b *testing.B) {
		vecs := bigdbVectors()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buildBigdb(vecs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bigdbRows), "ns/row")
	})
}

// bigdbRows and bigdbDim are the shape of bigdb-100k's database.
const bigdbRows, bigdbDim = 100_003, 384

func gauss(rng *rand.Rand, v []float32) []float32 {
	for d := range v {
		v[d] = float32(rng.NormFloat64())
	}
	return v
}

// bigdbVectors is bigdb-100k's database as bench/ pads it: Gaussian rows,
// the even ids drawn from one stream and the odd ones from another, row
// id at [id*bigdbDim:].
func bigdbVectors() []float32 {
	vecs := make([]float32, bigdbRows*bigdbDim)
	for part := 0; part < 2; part++ {
		rng := rand.New(rand.NewSource(int64(300 + part)))
		for id := part; id < bigdbRows; id += 2 {
			gauss(rng, vecs[id*bigdbDim:(id+1)*bigdbDim])
		}
	}
	return vecs
}

// buildBigdb adds vecs to an index of bigdb-100k's shape from two
// goroutines, one the even ids and one the odd, as bench/ pads it.
func buildBigdb(vecs []float32) *Index {
	ix := New(Config{Dim: bigdbDim, Tables: 8, Bits: 6, Probes: 2, Seed: 3})
	var wg sync.WaitGroup
	for part := 0; part < 2; part++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := part; id < bigdbRows; id += 2 {
				ix.Add(id, vecs[id*bigdbDim:(id+1)*bigdbDim])
			}
		}()
	}
	wg.Wait()
	return ix
}

// BenchmarkKernelAdd measures one Remove + Add pair — what bigdb-100k's
// mutator pays per replaced view, and what its padding phase pays per row
// less the Remove — at the ledger's shape (Dim 384, Tables 8, Bits 6) over
// a 1 000-row index with Workers 1: hashing, the norm, the split row, the
// bucket updates and the swap-move.
func BenchmarkKernelAdd(b *testing.B) {
	const n, dim = 1000, 384
	rng := rand.New(rand.NewSource(58))
	ix := New(Config{Dim: dim, Tables: 8, Bits: 6, Probes: 2, Seed: 3, Workers: 1})
	vecs := make([][]float32, n)
	for id := range vecs {
		vecs[id] = randomUnit(rng, dim)
		ix.Add(id, vecs[id])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % n
		ix.Remove(id)
		ix.Add(id, vecs[id])
	}
}

// BenchmarkSortAndTrim compares the bounded quickselect top-k
// against the full sort it replaced, at query-sized candidate counts.
func BenchmarkSortAndTrim(b *testing.B) {
	rng := rand.New(rand.NewSource(40))
	const n, k = 30_000, 10
	base := make([]Neighbor, n)
	for i := range base {
		base[i] = Neighbor{ID: i, Dist: rng.Float64()}
	}
	scratch := make([]Neighbor, n)
	b.Run("quickselect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(scratch, base)
			sortAndTrim(scratch, k)
		}
	})
	b.Run("fullsort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(scratch, base)
			referenceSortAndTrim(scratch, k)
		}
	})
}
