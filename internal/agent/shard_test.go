package agent

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/edge-mar/scatter/internal/vision/lsh"
)

func shardGatherCfg(dim int) lsh.Config {
	return lsh.Config{Dim: dim, Tables: 4, Bits: 6, Probes: 2, Seed: 7}
}

func randomVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// startShardFleet builds a monolithic reference index, partitions it,
// and serves every shard; it returns the monolithic oracle and a gather
// client over the fleet.
func startShardFleet(t *testing.T, n, dim, shards int, gcfg ShardGatherConfig) (*lsh.Index, *ShardGather, []*ShardServer) {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	mono := lsh.New(shardGatherCfg(dim))
	for id := 0; id < n; id++ {
		mono.Add(id, randomVec(rng, dim))
	}
	sharded := lsh.NewShardedFrom(mono, lsh.ShardConfig{Shards: shards})
	var servers []*ShardServer
	gcfg.Index = shardGatherCfg(dim)
	gcfg.Shards = make([][]string, shards)
	for s := 0; s < shards; s++ {
		srv, err := StartShardServer(ShardServerConfig{
			Index:      sharded.Replica(s, 0),
			Shard:      s,
			ListenAddr: "127.0.0.1:0",
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers = append(servers, srv)
		gcfg.Shards[s] = []string{srv.Addr()}
	}
	g, err := NewShardGather(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return mono, g, servers
}

// TestShardGatherMatchesMonolithic is the remote half of the
// bit-identity regression: scatter/gather over live shard servers must
// return byte-for-byte the monolithic answer when every shard responds.
func TestShardGatherMatchesMonolithic(t *testing.T) {
	const n, dim, shards = 600, 16, 4
	mono, g, _ := startShardFleet(t, n, dim, shards, ShardGatherConfig{
		GatherTimeout: 2 * time.Second,
	})
	if g.Tables() != mono.Tables() {
		t.Fatalf("sketcher tables %d, want %d", g.Tables(), mono.Tables())
	}
	rng := rand.New(rand.NewSource(62))
	for q := 0; q < 10; q++ {
		v := randomVec(rng, dim)
		for tb := 0; tb < mono.Tables(); tb++ {
			if g.Hash(tb, v) != mono.Hash(tb, v) {
				t.Fatalf("sketcher hash diverges in table %d", tb)
			}
		}
		if got, want := g.Query(v, 5), mono.Query(v, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: gather diverges:\n got %v\nwant %v", q, got, want)
		}
		if got, want := g.ExactNN(v, 5), mono.ExactNN(v, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: exact gather diverges", q)
		}
	}
	if g.Len() != mono.Len() {
		t.Fatalf("gathered Len %d, want %d", g.Len(), mono.Len())
	}
	st := g.Stats()
	if st.Gathers == 0 || st.FanOuts < st.Gathers*shards {
		t.Fatalf("implausible gather stats: %+v", st)
	}
	if st.PartialGathers != 0 || st.DroppedShards != 0 || st.BelowQuorum != 0 {
		t.Fatalf("healthy fleet shows degradation: %+v", st)
	}
	d := g.Digest()
	if d.Shards != shards || d.Replication != 1 || d.Gathers != st.Gathers {
		t.Fatalf("digest disagrees with stats: %+v vs %+v", d, st)
	}
}

// TestShardGatherQuorum drives the degradation policy: with one shard
// dead a quorum gather proceeds on the surviving partitions and counts
// the dropped shard; a full-quorum gather is abandoned.
func TestShardGatherQuorum(t *testing.T) {
	const n, dim, shards = 400, 16, 4
	mono, g, servers := startShardFleet(t, n, dim, shards, ShardGatherConfig{
		GatherTimeout: 100 * time.Millisecond,
		Quorum:        shards - 1,
	})
	servers[2].Close()
	rng := rand.New(rand.NewSource(63))
	v := randomVec(rng, dim)
	got := g.Query(v, 5)
	if len(got) == 0 {
		t.Fatal("quorum gather returned nothing despite 3 live shards")
	}
	// The partial answer must be exactly the monolithic answer minus
	// shard 2's contributions: merging the three live partitions.
	want := mono.Query(v, 5)
	for _, nb := range got {
		if lsh.ShardOf(nb.ID, shards) == 2 {
			t.Fatalf("dead shard's id %d appeared in a partial gather", nb.ID)
		}
	}
	if reflect.DeepEqual(got, want) {
		// Possible only when shard 2 contributed nothing to the top-k;
		// still a valid partial result.
		t.Log("partial gather happened to equal monolithic top-k")
	}
	st := g.Stats()
	if st.PartialGathers != 1 || st.DroppedShards == 0 {
		t.Fatalf("partial gather not counted: %+v", st)
	}
	if st.GatherWaitMicros == 0 {
		t.Fatalf("gather wait not accounted: %+v", st)
	}
}

func TestShardGatherBelowQuorum(t *testing.T) {
	const n, dim, shards = 200, 16, 3
	_, g, servers := startShardFleet(t, n, dim, shards, ShardGatherConfig{
		GatherTimeout: 80 * time.Millisecond,
		// Quorum defaults to all shards: strict bit-identity.
	})
	servers[0].Close()
	rng := rand.New(rand.NewSource(64))
	if got := g.Query(randomVec(rng, dim), 5); got != nil {
		t.Fatalf("below-quorum gather returned %v, want nil", got)
	}
	st := g.Stats()
	if st.BelowQuorum != 1 || st.Gathers != 0 {
		t.Fatalf("below-quorum not counted: %+v", st)
	}
}

// TestShardServerRejects covers the misrouting guard: a query addressed
// to the wrong shard number is dropped, never answered from the wrong
// partition.
func TestShardServerRejects(t *testing.T) {
	const dim = 16
	ix := lsh.New(shardGatherCfg(dim))
	rng := rand.New(rand.NewSource(65))
	for id := 0; id < 50; id++ {
		ix.Add(id, randomVec(rng, dim))
	}
	srv, err := StartShardServer(ShardServerConfig{Index: ix, Shard: 3, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// A gather that believes the fleet has one shard (shard 0) hits a
	// server owning shard 3: every leg must be rejected server-side.
	g, err := NewShardGather(ShardGatherConfig{
		Shards:        [][]string{{srv.Addr()}},
		Index:         shardGatherCfg(dim),
		GatherTimeout: 80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if got := g.Query(randomVec(rng, dim), 3); got != nil {
		t.Fatalf("misrouted query answered: %v", got)
	}
	deadline := time.Now().Add(time.Second)
	for srv.Stats().Rejected == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st := srv.Stats(); st.Rejected == 0 || st.Queries != 0 {
		t.Fatalf("misrouted query not rejected: %+v", st)
	}
}

// TestShardGatherLayoutSignature: different fleet layouts must mint
// different recognition-cache key prefixes.
func TestShardGatherLayoutSignature(t *testing.T) {
	cfg := shardGatherCfg(16)
	mk := func(shards int) *ShardGather {
		addrs := make([][]string, shards)
		for s := range addrs {
			addrs[s] = []string{"127.0.0.1:1"}
		}
		g, err := NewShardGather(ShardGatherConfig{Shards: addrs, Index: cfg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { g.Close() })
		return g
	}
	if mk(4).LayoutSignature() == mk(8).LayoutSignature() {
		t.Fatal("4-shard and 8-shard fleets share a layout signature")
	}
}
