// Shard scatter/gather frames: the two control messages the matching
// tier's scatter path exchanges with remote index shards. A shard query
// carries one descriptor vector to a single shard replica; a shard
// result carries that shard's local top-k back. Both share the data
// sockets with frames and acks, distinguished by their own magics, and
// both use append-style encoders so a pooled buffer round-trips with
// zero allocations — the same data-plane discipline as the frame codec.
package wire

import (
	"encoding/binary"
	"math"
)

// Shard codec constants.
const (
	shardQueryMagic  = 0x5CAD // distinct from frame 0x5CA7 and ack 0x5CAB
	shardResultMagic = 0x5CAE

	// shardQueryHeaderSize is the fixed prefix of a shard query:
	// magic(2) version(1) flags(1) queryID(8) shard(2) k(2) dim(4).
	shardQueryHeaderSize = 2 + 1 + 1 + 8 + 2 + 2 + 4

	// shardResultHeaderSize is the fixed prefix of a shard result:
	// magic(2) version(1) flags(1) queryID(8) shard(2) count(2)
	// shardLen(8).
	shardResultHeaderSize = 2 + 1 + 1 + 8 + 2 + 2 + 8

	// shardNeighborSize is one (id, dist) result entry: id(4) dist(8).
	shardNeighborSize = 4 + 8

	// ShardQueryExact flags a brute-force scan instead of an LSH probe —
	// the gather side of ExactNN.
	ShardQueryExact = 0x01

	// MaxShardK bounds k so a result frame stays well under one UDP
	// datagram even with the header.
	MaxShardK = 1024
)

// ShardNeighbor is one gathered candidate: a reference object ID and its
// exact cosine distance to the query, as computed by the owning shard.
type ShardNeighbor struct {
	ID   int32
	Dist float64
}

// AppendShardQuery appends an encoded shard query to buf and returns the
// extended buffer. With enough spare capacity the call performs zero
// allocations. It panics when k exceeds MaxShardK, a programming error.
func AppendShardQuery(buf []byte, queryID uint64, shard, k int, flags byte, vec []float32) []byte {
	if k < 0 || k > MaxShardK {
		panic("wire: shard query k out of range")
	}
	buf = binary.BigEndian.AppendUint16(buf, shardQueryMagic)
	buf = append(buf, version, flags)
	buf = binary.BigEndian.AppendUint64(buf, queryID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(shard))
	buf = binary.BigEndian.AppendUint16(buf, uint16(k))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(vec)))
	for _, x := range vec {
		buf = binary.BigEndian.AppendUint32(buf, math.Float32bits(x))
	}
	return buf
}

// IsShardQuery reports whether data is a shard query — the cheap
// dispatch test a shard server runs before decoding.
func IsShardQuery(data []byte) bool {
	return len(data) >= shardQueryHeaderSize && binary.BigEndian.Uint16(data) == shardQueryMagic
}

// ParseShardQuery decodes a shard query. The returned vector aliases
// dst when dst has capacity, so callers can reuse a pooled buffer; ok is
// false on any malformed input.
func ParseShardQuery(data []byte, dst []float32) (queryID uint64, shard, k int, flags byte, vec []float32, ok bool) {
	if !IsShardQuery(data) || data[2] != version {
		return 0, 0, 0, 0, nil, false
	}
	flags = data[3]
	queryID = binary.BigEndian.Uint64(data[4:])
	shard = int(binary.BigEndian.Uint16(data[12:]))
	k = int(binary.BigEndian.Uint16(data[14:]))
	dim := int(binary.BigEndian.Uint32(data[16:]))
	if k > MaxShardK || dim < 0 || len(data) != shardQueryHeaderSize+4*dim {
		return 0, 0, 0, 0, nil, false
	}
	if cap(dst) >= dim {
		vec = dst[:dim]
	} else {
		vec = make([]float32, dim)
	}
	for i := 0; i < dim; i++ {
		vec[i] = math.Float32frombits(binary.BigEndian.Uint32(data[shardQueryHeaderSize+4*i:]))
	}
	return queryID, shard, k, flags, vec, true
}

// AppendShardResult appends an encoded shard result to buf and returns
// the extended buffer. shardLen is the shard's current item count — the
// gather side sums it to learn the global reference-set size without a
// separate control exchange. Panics when more than MaxShardK neighbors
// are supplied.
func AppendShardResult(buf []byte, queryID uint64, shard int, shardLen int, neighbors []ShardNeighbor) []byte {
	if len(neighbors) > MaxShardK {
		panic("wire: shard result neighbor count out of range")
	}
	buf = binary.BigEndian.AppendUint16(buf, shardResultMagic)
	buf = append(buf, version, 0)
	buf = binary.BigEndian.AppendUint64(buf, queryID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(shard))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(neighbors)))
	buf = binary.BigEndian.AppendUint64(buf, uint64(shardLen))
	for _, n := range neighbors {
		buf = binary.BigEndian.AppendUint32(buf, uint32(n.ID))
		buf = binary.BigEndian.AppendUint64(buf, math.Float64bits(n.Dist))
	}
	return buf
}

// IsShardResult reports whether data is a shard result.
func IsShardResult(data []byte) bool {
	return len(data) >= shardResultHeaderSize && binary.BigEndian.Uint16(data) == shardResultMagic
}

// ParseShardResult decodes a shard result. The returned neighbor slice
// aliases dst when dst has capacity, so a pooled gather buffer
// round-trips without allocating; ok is false on any malformed input.
func ParseShardResult(data []byte, dst []ShardNeighbor) (queryID uint64, shard int, shardLen int, neighbors []ShardNeighbor, ok bool) {
	if !IsShardResult(data) || data[2] != version {
		return 0, 0, 0, nil, false
	}
	queryID = binary.BigEndian.Uint64(data[4:])
	shard = int(binary.BigEndian.Uint16(data[12:]))
	count := int(binary.BigEndian.Uint16(data[14:]))
	shardLen = int(binary.BigEndian.Uint64(data[16:]))
	if count > MaxShardK || shardLen < 0 || len(data) != shardResultHeaderSize+shardNeighborSize*count {
		return 0, 0, 0, nil, false
	}
	if cap(dst) >= count {
		neighbors = dst[:count]
	} else {
		neighbors = make([]ShardNeighbor, count)
	}
	for i := 0; i < count; i++ {
		off := shardResultHeaderSize + shardNeighborSize*i
		neighbors[i].ID = int32(binary.BigEndian.Uint32(data[off:]))
		neighbors[i].Dist = math.Float64frombits(binary.BigEndian.Uint64(data[off+4:]))
	}
	return queryID, shard, shardLen, neighbors, true
}
