package lsh

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// shardTestConfig uses few bits so buckets are dense and every query
// crosses several shards' candidate sets.
func shardTestConfig(dim int) Config {
	return Config{Dim: dim, Tables: 4, Bits: 6, Probes: 2, Seed: 7}
}

func buildPair(t testing.TB, n, dim, shards int) (*Index, *ShardedIndex, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	mono := New(shardTestConfig(dim))
	for id := 0; id < n; id++ {
		mono.Add(id, randomUnit(rng, dim))
	}
	sx := NewShardedFrom(mono, ShardConfig{Shards: shards})
	return mono, sx, rng
}

func TestShardOf(t *testing.T) {
	counts := make([]int, 8)
	for id := 0; id < 8000; id++ {
		s := ShardOf(id, 8)
		if s < 0 || s >= 8 {
			t.Fatalf("ShardOf(%d, 8) = %d out of range", id, s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("shard %d holds %d of 8000 ids, want near-uniform 1000", s, c)
		}
	}
	if ShardOf(42, 1) != 0 || ShardOf(42, 0) != 0 {
		t.Error("degenerate shard counts must map to shard 0")
	}
	if ShardOf(42, 8) != ShardOf(42, 8) {
		t.Error("ShardOf must be deterministic")
	}
}

// TestShardedMatchesMonolithic is the bit-identity regression: a sharded
// index over the same reference set must return byte-for-byte the result
// of the monolithic index for Query and ExactNN.
func TestShardedMatchesMonolithic(t *testing.T) {
	const n, dim = 2000, 32
	for _, shards := range []int{1, 3, 4, 8} {
		mono, sx, rng := buildPair(t, n, dim, shards)
		if sx.Len() != mono.Len() {
			t.Fatalf("shards=%d: Len %d, want %d", shards, sx.Len(), mono.Len())
		}
		for q := 0; q < 20; q++ {
			v := randomUnit(rng, dim)
			for _, k := range []int{1, 3, 10, 50} {
				got, want := sx.Query(v, k), mono.Query(v, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("shards=%d k=%d: sharded Query diverges:\n got %v\nwant %v", shards, k, got, want)
				}
			}
			if got, want := sx.ExactNN(v, 10), mono.ExactNN(v, 10); !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d: sharded ExactNN diverges", shards)
			}
		}
	}
}

// TestShardedOnlineMutation matches incremental sharded Add/Remove
// against the monolithic index receiving the same stream.
func TestShardedOnlineMutation(t *testing.T) {
	const dim = 24
	rng := rand.New(rand.NewSource(32))
	mono := New(shardTestConfig(dim))
	sx := NewSharded(ShardConfig{Index: shardTestConfig(dim), Shards: 4})
	live := make(map[int][]float32)
	for step := 0; step < 1500; step++ {
		if len(live) > 50 && rng.Intn(4) == 0 {
			for id := range live {
				mono.Remove(id)
				sx.Remove(id)
				delete(live, id)
				break
			}
			continue
		}
		id := rng.Intn(600) // collisions exercise the replace path
		v := randomUnit(rng, dim)
		mono.Add(id, v)
		sx.Add(id, v)
		live[id] = v
	}
	if sx.Len() != mono.Len() {
		t.Fatalf("Len %d after mutation stream, want %d", sx.Len(), mono.Len())
	}
	for q := 0; q < 20; q++ {
		v := randomUnit(rng, dim)
		if got, want := sx.Query(v, 10), mono.Query(v, 10); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d diverges after mutation stream:\n got %v\nwant %v", q, got, want)
		}
	}
}

// TestShardedConcurrentMutation hammers Add/Remove/Resize during queries;
// the race detector is the assertion.
func TestShardedConcurrentMutation(t *testing.T) {
	const dim = 16
	sx := NewSharded(ShardConfig{Index: shardTestConfig(dim), Shards: 4, Replication: 2})
	seedRng := rand.New(rand.NewSource(33))
	for id := 0; id < 200; id++ {
		sx.Add(id, randomUnit(seedRng, dim))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				sx.Query(randomUnit(rng, dim), 5)
				sx.Query(randomUnit(rng, dim), 3)
			}
		}(int64(40 + w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(50))
		for i := 0; i < 500; i++ {
			id := rng.Intn(400)
			if rng.Intn(3) == 0 {
				sx.Remove(id)
			} else {
				sx.Add(id, randomUnit(rng, dim))
			}
			if i%100 == 99 {
				sx.Resize(3 + rng.Intn(4))
			}
		}
		close(stop)
	}()
	wg.Wait()
}

// TestShardedResize checks the rebalance invariant directly on the
// topology: after Resize every stored ID lives in exactly the shard
// splitmix64 assigns it to, in every replica of that shard, and nowhere
// else — no orphans, no duplicates.
func TestShardedResize(t *testing.T) {
	const n, dim = 500, 16
	rng := rand.New(rand.NewSource(34))
	sx := NewSharded(ShardConfig{Index: shardTestConfig(dim), Shards: 4, Replication: 2})
	vecs := make(map[int][]float32)
	for id := 0; id < n; id++ {
		v := randomUnit(rng, dim)
		sx.Add(id, v)
		vecs[id] = v
	}
	for _, shards := range []int{7, 2, 4} {
		sx.Resize(shards)
		if got := sx.Shards(); got != shards {
			t.Fatalf("Shards() = %d after Resize(%d)", got, shards)
		}
		if sx.Len() != n {
			t.Fatalf("Len = %d after Resize(%d), want %d (orphaned or duplicated ids)", sx.Len(), shards, n)
		}
		topo := sx.snapshot()
		for id := range vecs {
			want := ShardOf(id, shards)
			for s, reps := range topo.replicas {
				for r, ix := range reps {
					ix.mu.RLock()
					_, ok := ix.slots[id]
					ix.mu.RUnlock()
					if ok != (s == want) {
						t.Fatalf("Resize(%d): id %d present=%v in shard %d replica %d, want shard %d only",
							shards, id, ok, s, r, want)
					}
				}
			}
		}
	}
	v := vecs[0]
	res := sx.Query(v, 1)
	if len(res) == 0 || res[0].ID != 0 || res[0].Dist > 1e-9 {
		t.Fatalf("id 0 not recoverable after resizes: %v", res)
	}
}

// TestShardedReplicaPicker verifies the health-pick hook routes shard
// queries to the chosen replica and that every replica holds the full
// shard contents (hot-shard replication).
func TestShardedReplicaPicker(t *testing.T) {
	const dim = 16
	sx := NewSharded(ShardConfig{Index: shardTestConfig(dim), Shards: 2, Replication: 3})
	rng := rand.New(rand.NewSource(35))
	for id := 0; id < 100; id++ {
		sx.Add(id, randomUnit(rng, dim))
	}
	var mu sync.Mutex
	picked := make(map[int]int)
	sx.SetReplicaPicker(func(shard, replicas int) int {
		if replicas != 3 {
			t.Errorf("picker saw %d replicas, want 3", replicas)
		}
		mu.Lock()
		picked[shard]++
		mu.Unlock()
		return 2
	})
	v := randomUnit(rng, dim)
	want := sx.Query(v, 5)
	sx.SetReplicaPicker(func(shard, replicas int) int { return 0 })
	if got := sx.Query(v, 5); !reflect.DeepEqual(got, want) {
		t.Fatal("different replicas of one shard disagree — replication broke")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(picked) != 2 {
		t.Fatalf("picker consulted for %d shards, want 2", len(picked))
	}
	st := sx.Stats()
	if st.Queries == 0 || st.ShardQueries < st.Queries {
		t.Fatalf("stats not counting: %+v", st)
	}
}

// referenceSortAndTrim is the pre-quickselect implementation kept as the
// equality oracle.
func referenceSortAndTrim(neighbors []Neighbor, k int) []Neighbor {
	sort.Slice(neighbors, func(i, j int) bool {
		if neighbors[i].Dist != neighbors[j].Dist {
			return neighbors[i].Dist < neighbors[j].Dist
		}
		return neighbors[i].ID < neighbors[j].ID
	})
	if len(neighbors) > k {
		neighbors = neighbors[:k]
	}
	return neighbors
}

// TestSortAndTrimMatchesFullSort regresses the quickselect top-k against
// the full sort it replaced, including duplicate distances (tie-broken
// by ID) and every boundary k.
func TestSortAndTrimMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(400)
		base := make([]Neighbor, n)
		for i := range base {
			// Quantized distances force ties so the ID tiebreak is hit.
			base[i] = Neighbor{ID: i, Dist: float64(rng.Intn(50)) / 50}
		}
		rng.Shuffle(n, func(i, j int) { base[i], base[j] = base[j], base[i] })
		for _, k := range []int{0, 1, 2, n / 2, n - 1, n, n + 10} {
			if k < 0 {
				continue
			}
			got := sortAndTrim(append([]Neighbor(nil), base...), k)
			want := referenceSortAndTrim(append([]Neighbor(nil), base...), k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d k=%d: quickselect diverges from full sort\n got %v\nwant %v", n, k, got, want)
			}
		}
	}
}

func TestMergeNeighbors(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 100; trial++ {
		nLists := 1 + rng.Intn(20) // crosses the stack-cursor cutoff
		var lists [][]Neighbor
		var all []Neighbor
		id := 0
		for l := 0; l < nLists; l++ {
			n := rng.Intn(15)
			list := make([]Neighbor, n)
			for i := range list {
				list[i] = Neighbor{ID: id, Dist: float64(rng.Intn(40)) / 40}
				id++
			}
			list = referenceSortAndTrim(list, n)
			lists = append(lists, list)
			all = append(all, list...)
		}
		for _, k := range []int{0, 1, 5, len(all), len(all) + 3} {
			got := MergeNeighbors(nil, lists, k)
			want := referenceSortAndTrim(append([]Neighbor(nil), all...), k)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("lists=%d k=%d: merge diverges\n got %v\nwant %v", nLists, k, got, want)
			}
		}
	}
}

// mergeAllocBudget is the enforced steady-state allocation budget of one
// gather merge: stack cursors plus a caller-pooled destination leave
// nothing to allocate.
const mergeAllocBudget = 0

func TestMergeNeighborsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	rng := rand.New(rand.NewSource(38))
	const k = 16
	lists := make([][]Neighbor, 8)
	id := 0
	for s := range lists {
		l := make([]Neighbor, k)
		for i := range l {
			l[i] = Neighbor{ID: id, Dist: rng.Float64()}
			id++
		}
		lists[s] = referenceSortAndTrim(l, k)
	}
	dst := GetNeighborScratch(k)
	defer PutNeighborScratch(dst)
	avg := testing.AllocsPerRun(200, func() {
		dst = MergeNeighbors(dst, lists, k)
	})
	if avg > mergeAllocBudget {
		t.Errorf("gather merge allocates %.1f/op, budget %d", avg, mergeAllocBudget)
	}
}
