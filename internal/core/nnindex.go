package core

import "github.com/edge-mar/scatter/internal/vision/lsh"

// NNIndex is the nearest-neighbour backend behind the lsh service. The
// monolithic *lsh.Index, the in-process *lsh.ShardedIndex scatter/gather
// router, and the agent's remote shard-gather client all satisfy it, so
// the recognition tier picks its reference-database layout purely by
// construction — Process is backend-agnostic and results
// are bit-identical across backends over the same reference set.
type NNIndex interface {
	// Query returns up to k nearest neighbours of v ranked by exact
	// cosine distance under the (distance, id) total order.
	Query(v []float32, k int) []lsh.Neighbor
	// ExactNN is the brute-force fallback used to top up thin probe
	// results on small reference sets.
	ExactNN(v []float32, k int) []lsh.Neighbor
	// Len returns the number of stored reference items.
	Len() int
}
