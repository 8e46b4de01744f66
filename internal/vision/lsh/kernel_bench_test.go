package lsh

import (
	"math/rand"
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
		b.Run("n="+itoa(n), func(b *testing.B) {
			ix.mu.RLock()
			defer ix.mu.RUnlock()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range neighbors {
					neighbors[j] = Neighbor{ID: j}
				}
				ix.rankLocked(queries[i%len(queries)], neighbors)
			}
		})
	}
}

// BenchmarkKernelQuery measures the full single-query path (hash, probe,
// rank, top-k) on the dense-bucket index, where ranking dominates.
func BenchmarkKernelQuery(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		ix, queries := kernelBenchIndex(b, n)
		b.Run("n="+itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ix.Query(queries[i%len(queries)], 10)
			}
		})
	}
}

// BenchmarkKernelPreRank sweeps the Hamming pre-ranking budget on a
// recognition-shaped reference set at 100k vectors: each object is a
// tight cluster of 10 reference views (per-coordinate noise 0.04) and
// queries are fresh views of known objects (noise 0.03). The sketch is
// one full word (Tables=8 × Bits=8 = 64 bits) — the resolution a 100k
// candidate tail needs; popcount cost is identical to any ≤64-bit
// sketch. The pr=0 row times exact mode on the *same* index, so the
// pre-rank speedup is read off within this table, and each pr>0 row
// reports recall@10 against those exact results — computed outside the
// timed loop over the same query set — alongside query latency: the
// recall-vs-speedup curve EXPERIMENTS.md quotes.
func BenchmarkKernelPreRank(b *testing.B) {
	const dim, n, k = 64, 100_000, 10
	rng := rand.New(rand.NewSource(int64(n) + 200))
	ix := New(Config{Dim: dim, Tables: 8, Bits: 8, Probes: 2, Seed: 9, Workers: 1})
	base := make([][]float32, n/10)
	for i := range base {
		base[i] = randomUnit(rng, dim)
	}
	for id := 0; id < n; id++ {
		ix.Add(id, perturb(rng, base[id%len(base)], 0.04))
	}
	queries := make([][]float32, 16)
	for q := range queries {
		queries[q] = perturb(rng, base[q%len(base)], 0.03)
	}
	ix.SetPreRank(0)
	exact := make([]map[int]struct{}, len(queries))
	for q, v := range queries {
		exact[q] = make(map[int]struct{}, k)
		for _, nb := range ix.Query(v, k) {
			exact[q][nb.ID] = struct{}{}
		}
	}
	for _, pr := range []int{0, 2, 4, 8} {
		ix.SetPreRank(pr)
		hits, total := 0, 0
		for q, v := range queries {
			for _, nb := range ix.Query(v, k) {
				if _, ok := exact[q][nb.ID]; ok {
					hits++
				}
			}
			total += len(exact[q])
		}
		recall := float64(hits) / float64(total)
		b.Run("n="+itoa(n)+"/pr="+itoa(pr), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Query(queries[i%len(queries)], k)
			}
			b.ReportMetric(recall, "recall@10")
		})
	}
	ix.SetPreRank(0)
}
