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
