package core

import (
	"reflect"
	"testing"

	"github.com/edge-mar/scatter/internal/vision/lsh"
	"github.com/edge-mar/scatter/internal/wire"
)

// TestLSHServiceShardedBitIdentical runs the full recognition pipeline
// twice — once over the monolithic index, once over a sharded index of
// the same reference set — and requires byte-identical results end to
// end: the NNIndex seam must be invisible to the pipeline.
func TestLSHServiceShardedBitIdentical(t *testing.T) {
	m, gen := trainedModel(t)
	for _, shards := range []int{2, 5} {
		monoProcs := NewProcessors(m, false, 320, 180)
		shardProcs := NewProcessors(m, false, 320, 180)
		sharded := lsh.NewShardedFrom(m.Index, lsh.ShardConfig{Shards: shards})
		shardProcs[wire.StepLSH] = NewLSHService(sharded, 3)
		for idx := 0; idx < 3; idx++ {
			want := runPipeline(t, monoProcs, clientFrame(t, gen, 1, uint64(idx+1), idx))
			got := runPipeline(t, shardProcs, clientFrame(t, gen, 1, uint64(idx+1), idx))
			if !reflect.DeepEqual(got.Candidates, want.Candidates) {
				t.Fatalf("shards=%d frame %d: candidates diverge\n got %v\nwant %v",
					shards, idx, got.Candidates, want.Candidates)
			}
			if !reflect.DeepEqual(got.Detections, want.Detections) {
				t.Fatalf("shards=%d frame %d: detections diverge", shards, idx)
			}
		}
	}
}

// TestRecognitionCacheShardLayoutKeying pins the aliasing guard: sketch
// keys minted under different shard layouts must differ even for the
// same Fisher vector, while the monolithic key format stays exactly the
// historical unprefixed concatenation of table hashes.
func TestRecognitionCacheShardLayoutKeying(t *testing.T) {
	m, _ := trainedModel(t)
	fisher := make([]float32, m.Index.Dim())
	for i := range fisher {
		fisher[i] = float32(i%7) - 3
	}
	monoCache := NewRecognitionCache(RecognitionCacheConfig{}, m.Index)
	monoKey := monoCache.Sketch(fisher)
	if len(monoKey) != 8*m.Index.Tables() {
		t.Fatalf("monolithic sketch is %d bytes, want the unprefixed %d", len(monoKey), 8*m.Index.Tables())
	}

	s4 := lsh.NewShardedFrom(m.Index, lsh.ShardConfig{Shards: 4})
	s8 := lsh.NewShardedFrom(m.Index, lsh.ShardConfig{Shards: 8})
	c4 := NewRecognitionCache(RecognitionCacheConfig{}, s4)
	c8 := NewRecognitionCache(RecognitionCacheConfig{}, s8)
	k4, k8 := c4.Sketch(fisher), c8.Sketch(fisher)
	if len(k4) != 8*(m.Index.Tables()+1) {
		t.Fatalf("sharded sketch is %d bytes, want layout prefix + tables = %d", len(k4), 8*(m.Index.Tables()+1))
	}
	if k4 == k8 {
		t.Fatal("4-shard and 8-shard layouts mint the same cache key")
	}
	if k4 == monoKey || k8 == monoKey {
		t.Fatal("sharded cache key aliases the monolithic key")
	}
	// A resize is a new layout: entries cached before it must not be
	// served after it.
	c4.Store(k4, []Candidate{{ObjectID: 1, Dist: 0.1}})
	s4.Resize(6)
	resized := c4.Sketch(fisher)
	if resized == k4 {
		t.Fatal("resize did not rotate the cache key space")
	}
	if _, ok := c4.Lookup(resized); ok {
		t.Fatal("entry cached under the old layout served under the new one")
	}
	// Identical layouts still share keys — that is the cache's point.
	if c4.Sketch(fisher) != resized {
		t.Fatal("sketch not stable within one layout")
	}
}
