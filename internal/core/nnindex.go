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
	// Tables returns the number of LSH hash tables.
	Tables() int
	// Hash returns the bucket key of v in one table — the recognition
	// cache builds its sketch keys from these.
	Hash(table int, v []float32) uint64
}

// LayoutSigner is implemented by NNIndex backends whose reference set is
// partitioned into a mutable layout (shard count, replication, resize
// epoch). The recognition cache folds the signature into its keys so an
// entry cached under one layout can never alias an entry under another.
type LayoutSigner interface {
	LayoutSignature() uint64
}

// PreRanker is implemented by NNIndex backends that support bit-packed
// Hamming pre-ranking (lsh.Index and lsh.ShardedIndex): queries cut the
// candidate set to n·k by sketch Hamming distance before the exact
// cosine pass. SetPreRank(0) restores exact mode — bit-identical
// ranking of every candidate. The control plane retunes it live; the
// remote shard-gather client does not implement it (the budget lives
// server-side on each shard's index).
type PreRanker interface {
	SetPreRank(n int)
}
