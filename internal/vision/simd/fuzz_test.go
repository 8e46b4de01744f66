package simd_test

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"github.com/edge-mar/scatter/internal/vision/simd"
)

// fuzzBytes hands out the fuzzer's bytes, zeros once they run out.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

func (b *fuzzBytes) u16() uint16 { return uint16(b.next()) | uint16(b.next())<<8 }

// float decodes one value: a class byte, then the bytes that class reads.
// The classes are the values a reordered, fused or truncated sum gives
// away — ±0, NaN, ±Inf, denormals, values near the float32 limit — and
// ordinary values from raw bits.
func (b *fuzzBytes) float() float32 {
	c := b.next()
	sign := float32(1 - 2*int(c>>7))
	switch c & 7 {
	case 0:
		return sign * 0
	case 1:
		return float32(math.NaN())
	case 2:
		return sign * float32(math.Inf(1))
	case 3:
		return sign * math.Float32frombits(uint32(b.u16())|uint32(b.next()&0x7f)<<16) // denormal or zero
	case 4:
		return sign * math.Float32frombits(math.Float32bits(math.MaxFloat32)-uint32(b.next()))
	default:
		return math.Float32frombits(uint32(b.u16()) | uint32(b.u16())<<16)
	}
}

func (b *fuzzBytes) floats(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = b.float()
	}
	return s
}

// rows16 decodes a length from 1 to 70, a query and 16 rows of that
// length, then one byte per row: a nonzero byte a points row r at row
// (a−1) mod 16 instead, so pointers repeat as in the callers' padded last
// blocks; a zero byte, which is what a short input reads, keeps the row's
// own. want holds ref of the query and each row's pointee.
func (b *fuzzBytes) rows16(ref func(q, row []float32) float64) (q []float32, rows [16]*float32, want [16]float64) {
	dim := 1 + int(b.next())%70
	q = b.floats(dim)
	for r := range rows {
		rows[r] = unsafe.SliceData(b.floats(dim))
	}
	for r := range rows {
		if a := b.next(); a != 0 {
			rows[r] = rows[int(a-1)%16]
		}
	}
	for r, p := range rows {
		want[r] = ref(q, unsafe.Slice(p, dim))
	}
	return q, rows, want
}

// checkRows16 runs a 16-row kernel on both paths into NaN-filled results
// and requires both to equal want.
func checkRows16(t *testing.T, name string, kernel func(*[16]float64, []float32, *[16]*float32), q []float32, rows *[16]*float32, want *[16]float64) {
	t.Helper()
	for _, path := range []struct {
		name string
		run  func(f func())
	}{{name, func(f func()) { f() }}, {name + " (Go twin)", simd.GoOnly}} {
		var got [16]float64
		for r := range got {
			got[r] = math.NaN()
		}
		path.run(func() { kernel(&got, q, rows) })
		requireSame64(t, path.name, got[:], want[:])
	}
}

// FuzzDot16MatchesTwin pins the 16-row dot product — the lsh hash over
// the plane matrix and the exact ranking of the screen's survivors — to
// its Go twin and the one-row reference on decoded rows of any length,
// lengths that are not a multiple of the four lanes among them, and rows
// that share a pointer.
func FuzzDot16MatchesTwin(f *testing.F) {
	f.Add([]byte{5, 0, 0x80, 1, 2, 0x82, 3, 1, 2, 3, 4, 0xff, 7, 1, 2, 3, 4})
	f.Add([]byte{0, 5, 6, 7, 8})
	f.Add([]byte{70, 3, 0xff, 0xff, 0x7f, 0x84, 9, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		q, rows, want := b.rows16(refDot)
		checkRows16(t, "Dot16", simd.Dot16, q, &rows, &want)
	})
}

// FuzzSqDist16MatchesTwin pins the ratio test's 16-row squared distance
// to its Go twin and the one-row reference on the same decoded rows as
// FuzzDot16MatchesTwin: lengths on and off the four-lane width, ±0, NaN,
// ±Inf and subnormals, and rows that share a pointer, as the padded last
// block of nearestTwo makes them.
func FuzzSqDist16MatchesTwin(f *testing.F) {
	f.Add([]byte{5, 0, 0x80, 1, 2, 0x82, 3, 1, 2, 3, 4, 0xff, 7, 1, 2, 3, 4})
	f.Add([]byte{0, 5, 6, 7, 8})
	f.Add([]byte{70, 3, 0xff, 0xff, 0x7f, 0x84, 9, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		q, rows, want := b.rows16(refSqDist)
		checkRows16(t, "SqDist16", simd.SqDist16, q, &rows, &want)
	})
}

// FuzzDotHighHalfMatchesTwin pins the screen kernel to its Go twin and the
// lane-by-lane reference on decoded rows of halves (any 16 bits: NaN, Inf
// and denormal high halves among them), lengths on both sides of the
// 32-lane block, strides wider than a row, row lists that repeat, and
// chunks of one to eight rows, so that rows listed side by side, or four
// places apart as the prefetch reads them, lie in different chunks. The
// chunk shift is the last byte read: an input that ends before it has a
// row per chunk.
func FuzzDotHighHalfMatchesTwin(f *testing.F) {
	f.Add([]byte{33, 3, 1, 4, 0, 2, 2, 1, 0x80, 0x7f, 0xff, 0x80, 0xff})
	f.Add([]byte{0, 1, 0, 1})
	f.Add([]byte{96, 7, 5, 0, 3, 1, 4, 6, 2, 2, 0x81, 0x82, 0x83, 0x84, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		dim := int(b.next()) % 100
		stored := 1 + int(b.next())%8
		stride := dim + int(b.next())%5
		rows := make([]int32, 1+int(b.next())%12)
		for i := range rows {
			rows[i] = int32(int(b.next()) % stored)
		}
		q := b.floats(dim)
		halves := make([]uint16, (stored-1)*stride+dim)
		for i := range halves {
			halves[i] = b.u16()
		}
		shift := uint(b.next()) % 4
		chunks := newChunks(stored, shift, stride, dim, func() uint16 {
			h := halves[0]
			halves = halves[1:]
			return h
		})
		checkHighHalf(t, fmt.Sprintf("shift=%d", shift), q, chunks, shift, stride, rows)
	})
}

// palette decodes up to 16 values, specials among them, for picks to draw
// from: with few distinct values, equal ones — ties — are common.
func (b *fuzzBytes) palette() []float32 { return b.floats(1 + int(b.next())%16) }

// picks is n palette values, one byte each choosing which, in a slice that
// starts shift elements into its allocation.
func (b *fuzzBytes) picks(pal []float32, n, shift int) []float32 {
	s := make([]float32, n+shift)[shift:]
	for i := range s {
		s[i] = pal[int(b.next())%len(pal)]
	}
	return s
}

// FuzzSubMatchesTwin pins the DoG subtraction to its Go twin and to a-b
// element by element, on rows of any length around the 8-lane block, at
// any offset into their allocations, into a separate dst — as the scan's
// bands take it — and in place.
func FuzzSubMatchesTwin(f *testing.F) {
	f.Add([]byte{19, 3, 4, 0x80, 1, 2, 0, 1, 2, 3, 0, 1, 2, 3, 1, 2, 3, 0, 1, 2, 3, 2, 2, 1, 1, 0})
	f.Add([]byte{0, 0})
	f.Add([]byte{8, 5, 0xb2, 5, 1, 2, 3, 4, 3, 1, 1, 0, 0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		n := int(b.next()) % 80
		shift := int(b.next()) % 8
		pal := b.palette()
		x, y := b.picks(pal, n, shift), b.picks(pal, n, (shift+5)%8)
		want := make([]float32, n)
		for i := range want {
			want[i] = x[i] - y[i]
		}
		for _, path := range []struct {
			name string
			run  func(f func())
		}{{"Sub", func(f func()) { f() }}, {"Sub (Go twin)", simd.GoOnly}} {
			dst := nans(n, (shift+3)%8)
			path.run(func() { simd.Sub(dst, x, y) })
			requireSame32(t, path.name, dst, want)
			over := append([]float32(nil), x...)
			path.run(func() { simd.Sub(over, over, y) })
			requireSame32(t, path.name+" dst=a", over, want)
		}
	})
}

// FuzzExtremaMatchesTwin pins the extrema scan to its Go twin and to the
// pixel-by-pixel reference: masks of 1 to 64 groups, strides from the
// narrowest a window allows to 15 pixels wider, windows of palette values
// (ties with the centre, NaN, infinities, signed zeros, denormals), and
// thresholds that are float32s, lie just above one, or are NaN or
// infinite.
func FuzzExtremaMatchesTwin(f *testing.F) {
	f.Add([]byte{0, 0, 4, 0, 0x80, 5, 0, 0, 0x80, 0x3f, 7, 0, 0, 0xc0, 0x40, 2, 1, 0})
	f.Add([]byte{1, 3, 0, 1, 0})
	f.Add([]byte{7, 9, 2, 5, 0, 0, 0x80, 0x3f, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		groups := 1 + int(b.next())%64
		w := 8*groups + 2 + int(b.next())%16
		thr := float64(b.float())
		if b.next()&1 != 0 {
			thr = math.Nextafter(thr, math.Inf(1))
		}
		pal := b.palette()
		n := 2*w + 8*groups + 2
		below, cur, above := b.picks(pal, n, 1), b.picks(pal, n, 2), b.picks(pal, n, 3)
		checkExtrema(t, "", below, cur, above, w, groups, thr)
	})
}
