package simd_test

import (
	"fmt"
	"math"
	"math/rand"
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

// FuzzSqDistScreen16MatchesTwin pins the ratio test's float32 screen to
// its Go twin and the lane-by-lane reference on the same decoded rows as
// FuzzSqDist16MatchesTwin: lengths 1 to 70, on and off the 16-lane
// block, ±0, NaN, ±Inf, subnormals and values near the float32 limit,
// whose squares overflow, and rows that share a pointer.
func FuzzSqDistScreen16MatchesTwin(f *testing.F) {
	f.Add([]byte{5, 0, 0x80, 1, 2, 0x82, 3, 1, 2, 3, 4, 0xff, 7, 1, 2, 3, 4})
	f.Add([]byte{0, 5, 6, 7, 8})
	f.Add([]byte{70, 3, 0xff, 0xff, 0x7f, 0x84, 9, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		q, rows, want := b.rows16(func(q, row []float32) float64 { return float64(refSqDistScreen(q, row)) })
		var want32 [16]float32
		for r, w := range want {
			want32[r] = float32(w)
		}
		for _, path := range []struct {
			name string
			run  func(f func())
		}{{"SqDistScreen16", func(f func()) { f() }}, {"SqDistScreen16 (Go twin)", simd.GoOnly}} {
			var got [16]float32
			for r := range got {
				got[r] = nan32
			}
			path.run(func() { simd.SqDistScreen16(&got, q, &rows) })
			requireSame32(t, path.name, got[:], want32[:])
		}
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

// FuzzConvMatchesTwin pins the pyramid's convolution to its Go twin and
// the tap-by-tap reference: 0 to 79 output pixels, on and off the 8-lane
// block, under 1 to 33 taps, at any offset into their allocations, the
// offsets either consecutive — a horizontal pass over a padded row — or
// any of up to five rows, repeating as a vertical pass's clamped edges
// repeat them. Taps and pixels are palette values: ±0, NaN, ±Inf,
// subnormals and values near the float32 limit among ordinary ones.
func FuzzConvMatchesTwin(f *testing.F) {
	f.Add([]byte{19, 3, 0, 2, 4, 5, 0x00, 0x00, 0x80, 0x3f, 5, 0x00, 0x00, 0x00, 0xbf, 0x80, 1, 2, 3, 0, 1, 2})
	f.Add([]byte{9, 13, 1, 5, 3, 3, 0x34, 0x12, 0x00, 2, 0x82, 1})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		n := int(b.next()) % 80
		taps := 1 + int(b.next())%33
		vertical := b.next()&1 != 0
		shift := int(b.next()) % 8
		pal := b.palette()
		k := b.picks(pal, taps, (shift+3)%8)
		offs := make([]int, taps)
		var src []float32
		if vertical {
			rows := 1 + int(b.next())%5
			for i := range offs {
				offs[i] = int(b.next()) % rows * n
			}
			src = b.picks(pal, rows*n, shift)
		} else {
			for i := range offs {
				offs[i] = i
			}
			src = b.picks(pal, n+taps-1, shift)
		}
		checkConv(t, fmt.Sprintf("n=%d taps=%d vertical=%v", n, taps, vertical), n, src, offs, k, (shift+5)%8)
	})
}

// nudge moves f by k float32 steps, up for k > 0.
func nudge(f float32, k int) float32 {
	for ; k > 0; k-- {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	for ; k < 0; k++ {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

// FuzzGradMatchesTwin pins the gradient kernel to its Go twin and to
// math.Hypot and math.Atan2 bit for bit on rows of 0 to 69 pixels, on and
// off the 4-lane group. Each pixel's gx is a palette value (±0, NaN, ±Inf,
// subnormals, values whose differences overflow); its gy is another, or
// gx times the ratio at which atan2 switches branches — tan(3π/8), 0.66 —
// or 1, moved by up to seven float32 steps, in either sign.
func FuzzGradMatchesTwin(f *testing.F) {
	f.Add([]byte{12, 3, 4, 5, 0x00, 0x00, 0x80, 0x3f, 0x80, 3, 0x34, 0x12, 0x00, 2, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0x1d, 0x1e, 0x3f, 0x7d, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88})
	f.Add([]byte{5, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		n := int(b.next()) % 70
		shift := int(b.next()) % 8
		pal := b.palette()
		gx := b.picks(pal, n, 0)
		gy := make([]float32, n)
		for j := range gy {
			// The gx pixel j sees through gradPairs.
			x := gx[j]
			if j%4 >= 2 {
				x = 0 - gx[j-2]
			}
			c := b.next()
			ratio := [...]float32{0, 2.41421356237309504880, 0.66, 1}[c&3]
			if ratio == 0 {
				gy[j] = pal[int(c>>2)%len(pal)]
				continue
			}
			gy[j] = nudge(x*ratio, int(c>>2&15)-7)
			if c&0x80 != 0 {
				gy[j] = -gy[j]
			}
		}
		up, cur, down := gradPairs(gx, gy, shift)
		checkGrad(t, fmt.Sprintf("n=%d", n), up, cur, down, (shift+1)%8)
	})
}

// wide decodes a float64: a float32 value widened, or a float64
// subnormal, which no float32 is.
func (b *fuzzBytes) wide() float64 {
	if b.next()&1 != 0 {
		return math.Float64frombits(uint64(b.u16()) | uint64(b.u16())<<16)
	}
	return float64(b.float())
}

// step64 moves x one float64 step down for k < 0, up for k > 0.
func step64(x float64, k int) float64 {
	if k == 0 {
		return x
	}
	return math.Nextafter(x, float64(k)*math.Inf(1))
}

// FuzzDescRowMatchesTwin pins the descriptor kernel to its Go twin on
// rows of 0 to 59 pixels, on and off the 4-lane group, into a grid that
// already holds sums. Pixel offsets land inside the window, outside it,
// or a step either side of a cell edge; angles lie at the wrap points of
// theta − orientation (0, ±π, ±2π, ±4π and ±20, a step either way) or
// are decoded values; magnitudes and weights are decoded values, ±0, NaN,
// ±Inf and subnormals among them — all cases the kernel hands to the twin
// or replays. Decoded angles include ±Inf, NaN and huge finite values,
// which the twin reduces before it wraps.
func FuzzDescRowMatchesTwin(f *testing.F) {
	f.Add([]byte{7, 2, 1, 0, 0, 1, 0x10, 0xf0, 0x22, 0x05, 0x00, 0x00, 0x80, 0x3f, 0x03, 0x30, 0x40, 0x05, 0x00, 0x00, 0x00, 0x3f, 0x31, 0x42, 0x53})
	f.Add([]byte{13, 0, 0, 0, 0, 0, 0x81, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87})
	f.Add([]byte{0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBytes(data)
		n := int(b.next()) % 60
		row := &descRow{
			mag: make([]float64, n), theta: make([]float64, n), weight: make([]float64, n),
			colCos: make([]float64, n), colSin: make([]float64, n),
			orientation: descOrientations[int(b.next())%len(descOrientations)],
			binWidth:    [...]float64{1, 1, 0.75, 3.2, 2.5}[int(b.next())%5],
		}
		if c := b.next(); c&1 != 0 {
			row.rowSin, row.rowCos = float64(int8(c))/16, float64(int8(b.next()))/16
		}
		start := dirtyGrid(rand.New(rand.NewSource(int64(b.next()))))
		offset := func() float64 {
			c := b.next()
			if c&3 == 0 { // a cell edge at binWidth 1 and rowSin 0, a step either side
				return step64(float64(int(c>>2)%6)-2.5, int(c>>5)%3-1)
			}
			return float64(int8(c)) / 24
		}
		wraps := [...]float64{0, math.Pi, -math.Pi, 2 * math.Pi, -2 * math.Pi, 4 * math.Pi, -4 * math.Pi, 20, -20}
		for i := 0; i < n; i++ {
			row.mag[i], row.weight[i] = b.wide(), b.wide()
			row.colCos[i], row.colSin[i] = offset(), offset()
			switch c := b.next(); c & 3 {
			case 0:
				row.theta[i] = float64(b.float())
			case 1:
				row.theta[i] = float64(int8(b.next())) / 4
			default:
				row.theta[i] = step64(row.orientation+wraps[int(c>>2)%len(wraps)], int(c>>6)%3-1)
			}
		}
		checkDescRow(t, fmt.Sprintf("n=%d orientation %v", n, row.orientation), start, row)
	})
}
