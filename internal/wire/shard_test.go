package wire

import (
	"math"
	"math/rand"
	"testing"
)

func TestShardQueryRoundTrip(t *testing.T) {
	vec := []float32{0.5, -1.25, 3e-9, math.MaxFloat32, 0}
	data := AppendShardQuery(nil, 0xDEADBEEFCAFE, 5, 17, ShardQueryExact, vec)
	if !IsShardQuery(data) || IsShardResult(data) || IsAck(data) {
		t.Fatal("shard query misclassified")
	}
	qid, shard, k, flags, got, ok := ParseShardQuery(data, nil)
	if !ok || qid != 0xDEADBEEFCAFE || shard != 5 || k != 17 || flags != ShardQueryExact {
		t.Fatalf("header mismatch: qid=%x shard=%d k=%d flags=%x ok=%v", qid, shard, k, flags, ok)
	}
	if len(got) != len(vec) {
		t.Fatalf("vector length %d, want %d", len(got), len(vec))
	}
	for i := range vec {
		if math.Float32bits(got[i]) != math.Float32bits(vec[i]) {
			t.Fatalf("vector[%d] = %v, want bit-identical %v", i, got[i], vec[i])
		}
	}
	// Pooled-destination path must alias the caller's buffer.
	dst := make([]float32, 0, 16)
	_, _, _, _, got, ok = ParseShardQuery(data, dst)
	if !ok || &got[0] != &dst[:1][0] {
		t.Fatal("ParseShardQuery did not reuse the caller's buffer")
	}
}

func TestShardResultRoundTrip(t *testing.T) {
	ns := []ShardNeighbor{{ID: 7, Dist: 0.25}, {ID: -1, Dist: 1.75}, {ID: 1 << 30, Dist: 0}}
	data := AppendShardResult(nil, 42, 3, 123456, ns)
	if !IsShardResult(data) || IsShardQuery(data) || IsAck(data) {
		t.Fatal("shard result misclassified")
	}
	qid, shard, shardLen, got, ok := ParseShardResult(data, nil)
	if !ok || qid != 42 || shard != 3 || shardLen != 123456 {
		t.Fatalf("header mismatch: qid=%d shard=%d len=%d ok=%v", qid, shard, shardLen, ok)
	}
	if len(got) != len(ns) {
		t.Fatalf("count %d, want %d", len(got), len(ns))
	}
	for i := range ns {
		if got[i].ID != ns[i].ID || math.Float64bits(got[i].Dist) != math.Float64bits(ns[i].Dist) {
			t.Fatalf("neighbor[%d] = %+v, want bit-identical %+v", i, got[i], ns[i])
		}
	}
	dst := make([]ShardNeighbor, 0, 8)
	_, _, _, got, ok = ParseShardResult(data, dst)
	if !ok || &got[0] != &dst[:1][0] {
		t.Fatal("ParseShardResult did not reuse the caller's buffer")
	}
}

func TestShardCodecRejectsMalformed(t *testing.T) {
	q := AppendShardQuery(nil, 1, 0, 4, 0, []float32{1, 2, 3})
	r := AppendShardResult(nil, 1, 0, 10, []ShardNeighbor{{ID: 1, Dist: 0.5}})
	cases := [][]byte{
		nil,
		q[:len(q)-1], // truncated payload
		append(q[:0:0], q...)[:shardQueryHeaderSize-1], // truncated header
		r[:len(r)-1],
		append(append([]byte{}, q...), 0), // trailing junk
		append(append([]byte{}, r...), 0),
	}
	bad := append([]byte{}, q...)
	bad[2] = 99 // unsupported version
	cases = append(cases, bad)
	for i, data := range cases {
		if _, _, _, _, _, ok := ParseShardQuery(data, nil); ok {
			t.Errorf("case %d: malformed shard query accepted", i)
		}
		if _, _, _, _, ok := ParseShardResult(data, nil); ok {
			t.Errorf("case %d: malformed shard result accepted", i)
		}
	}
	// Fuzz-ish: random mutations never panic.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		data := append([]byte{}, q...)
		if trial%2 == 1 {
			data = append([]byte{}, r...)
		}
		for m := 0; m < 1+rng.Intn(4); m++ {
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		}
		ParseShardQuery(data, nil)
		ParseShardResult(data, nil)
	}
}

// shardCodecAllocBudget: append-style encoders into warm buffers and
// pooled-destination parsers leave nothing to allocate.
const shardCodecAllocBudget = 0

func TestShardCodecAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc accounting is unreliable under -race")
	}
	vec := make([]float32, 128)
	ns := make([]ShardNeighbor, 16)
	for i := range ns {
		ns[i] = ShardNeighbor{ID: int32(i), Dist: float64(i) / 16}
	}
	qbuf := AppendShardQuery(nil, 1, 2, 16, 0, vec)
	rbuf := AppendShardResult(nil, 1, 2, 100, ns)
	vdst := make([]float32, 128)
	ndst := make([]ShardNeighbor, 16)
	avg := testing.AllocsPerRun(200, func() {
		qbuf = AppendShardQuery(qbuf[:0], 1, 2, 16, 0, vec)
		rbuf = AppendShardResult(rbuf[:0], 1, 2, 100, ns)
		if _, _, _, _, _, ok := ParseShardQuery(qbuf, vdst); !ok {
			t.Fatal("query parse failed")
		}
		if _, _, _, _, ok := ParseShardResult(rbuf, ndst); !ok {
			t.Fatal("result parse failed")
		}
	})
	if avg > shardCodecAllocBudget {
		t.Errorf("shard codec allocates %.1f/op, budget %d", avg, shardCodecAllocBudget)
	}
}
