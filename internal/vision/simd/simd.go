// Package simd holds the repo's only assembly: AVX2 forms of the eight
// inner loops the frame ledger is spent on — four from SIFT (the separable
// convolution of the pyramid, the DoG extrema scan, the gradient patch
// around each keypoint and the descriptor's trilinear spread), the ratio
// test's squared distances and the float32 screen ahead of them, the dot
// products of the LSH hash and of its ranking, and the screen ahead of
// the ranking over the high halves of stored floats.
//
// Every exported function has exactly one meaning, given by a pure-Go
// twin in this file. The twin is the fallback (other architectures, amd64
// without AVX2 or without OS support for the YMM state, and whatever a
// vector block leaves over) and the oracle: the tests require the vector
// result to equal it bit for bit. That holds because a kernel never
// reorders anyone's arithmetic — a lane is a pixel or a row, each lane
// starts from zero and adds its terms in ascending order, and a product
// is rounded before it is added (VMULPS then VADDPS, never a fused
// multiply-add), which is what the amd64 compiler emits for the twins'
// acc += a*b at every GOAMD64 level (go1.24 fuses only an explicit
// math.FMA there; should a later one fuse more, the oracle tests fail
// under that setting instead of the outputs drifting apart). The twins
// are written as that plain expression, like the loops around them, so
// on an architecture whose compiler does fuse (arm64) twin, remainder
// loops and test references are all fused alike.
//
// The same argument covers the rest of what the kernels do. Division and
// square root are correctly rounded in IEEE 754, max, min and compares are
// exact, and a blend only picks one of two values already rounded: none
// of them depends on how many lanes run at once. So a kernel that performs
// the twin's operations on the same operands in the same order, with each
// branch turned into a compare and a blend, holds in every lane what the
// twin computes for that pixel. Grad replays two standard-library
// functions that way: math.Hypot, which on amd64 is the archHypot
// assembly, and math.Atan2, which is pure Go (atan2, atan, satan, xatan).
// Its twin calls them, so should a Go release change either — a constant,
// the order of an operation, a new assembly Atan2 — the oracle tests fail
// instead of the two paths drifting apart. Inputs that take the library's
// infinity and NaN cases go to the twin.
//
// DescRow adds more than its twin does, and still gets the same bits. Its
// twin skips a pixel outside the descriptor window and a cell outside the
// 4×4 grid; the kernel instead adds +0 for such a pixel, and lets a ring
// of cells around the grid take the shares of outside cells. x + (+0) = x
// for every float32 x except −0 (−0 + +0 = +0), and no bin is ever −0: it
// starts at +0, and a sum is −0 only when both terms are. Every bin
// therefore ends with the adds the twin makes, in the same pixel order;
// each pixel adds to a bin at most once, so the order of one pixel's
// adds does not matter.
//
// The two screens, DotHighHalf and SqDistScreen16, are the kernels whose
// lanes are not pixels or rows: a lane is a residue class of dimensions,
// and the lanes are folded in a fixed order at the end of each row. Each
// twin declares its lanes (32 and 16) and that fold, so it is the same
// arithmetic in the same order too.
//
// Which path ran is therefore invisible in the output, and there is
// nothing to configure: it is picked once at start-up from CPUID.
package simd

import (
	"fmt"
	"math"
	"unsafe"
)

// forceGo, when not empty, keeps every call on the pure-Go twins. Nothing
// in the program sets it. It exists so that the other packages' oracle
// tests can be run against the fallback on a machine that has AVX2:
//
//	go test -ldflags '-X github.com/edge-mar/scatter/internal/vision/simd.forceGo=1' ./internal/vision/...
var forceGo string

// useAVX2 selects the vector kernels. It is written once, here; this
// package's tests flip it to compare the two paths.
var useAVX2 = forceGo == "" && haveAVX2()

// Vector reports whether the kernels run on vector units. Results never
// depend on it; callers use it only to decide whether a pass is still
// worth fanning out across goroutines.
func Vector() bool { return useAVX2 }

// Conv computes dst[j] = Σ_i src[offs[i]+j]·k[i] for every j in dst: each
// sum starts from zero and adds its taps in ascending i. With offs =
// 0, 1, 2, … over a padded row that is a horizontal convolution, with
// offs = the starts of len(k) image rows a vertical one. len(offs) must
// equal len(k), every src[offs[i]:offs[i]+len(dst)] must lie inside src,
// and dst must not overlap the part of src it is computed from.
func Conv(dst, src []float32, offs []int, k []float32) {
	if len(offs) != len(k) {
		panic(fmt.Sprintf("simd: Conv with %d offsets for %d taps", len(offs), len(k)))
	}
	for _, o := range offs {
		if o < 0 || o > len(src)-len(dst) {
			panic(fmt.Sprintf("simd: Conv window [%d,%d) outside a source of %d", o, o+len(dst), len(src)))
		}
	}
	done := 0
	if useAVX2 && len(k) > 0 {
		if done = len(dst) &^ 7; done > 0 {
			convAVX2(&dst[0], done, &src[0], &offs[0], &k[0], len(k))
		}
	}
	if done < len(dst) {
		convGo(dst, src, offs, k, done)
	}
}

// convGo is Conv from pixel `from` on. It zeroes the output and sweeps it
// once per four taps, so the inner loop walks five contiguous runs; per
// pixel that is still the start-from-zero, ascending-tap sum.
func convGo(dst, src []float32, offs []int, k []float32, from int) {
	out := dst[from:]
	clear(out)
	win := func(i int) []float32 { return src[offs[i]+from:][:len(out)] }
	i := 0
	for ; i+4 <= len(k); i += 4 {
		s0, s1, s2, s3 := win(i), win(i+1), win(i+2), win(i+3)
		k0, k1, k2, k3 := k[i], k[i+1], k[i+2], k[i+3]
		for x := range out {
			out[x] = out[x] + s0[x]*k0 + s1[x]*k1 + s2[x]*k2 + s3[x]*k3
		}
	}
	for ; i < len(k); i++ {
		s0, k0 := win(i), k[i]
		for x := range out {
			out[x] += s0[x] * k0
		}
	}
}

// Sub computes dst[i] = a[i] - b[i]. The three slices must have equal
// lengths; dst may be a or b themselves (same first element), but must
// not overlap either of them in any other way.
func Sub(dst, a, b []float32) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic(fmt.Sprintf("simd: Sub of %d and %d elements into %d", len(a), len(b), len(dst)))
	}
	done := 0
	if useAVX2 {
		if done = len(dst) &^ 7; done > 0 {
			subAVX2(&dst[0], &a[0], &b[0], done)
		}
	}
	for i := done; i < len(dst); i++ {
		dst[i] = a[i] - b[i]
	}
}

// SqDist16 computes, for each of 16 rows, out[r] = Σ_i float64(q[i] −
// rows[r][i])²: the difference is taken in float32, squared in float64
// and added in ascending i from zero. Every rows[r] must point at len(q)
// readable elements — the pointer carries no length, so that is the
// caller's to guarantee.
func SqDist16(out *[16]float64, q []float32, rows *[16]*float32) {
	requireRows(rows)
	done := 0
	if useAVX2 && len(q) >= 4 {
		done = len(q) &^ 3
		sqDist16AVX2(out, &q[0], rows, done/4)
	} else {
		*out = [16]float64{}
	}
	if done < len(q) {
		sqDist16Go(out, q, rows, done)
	}
}

// sqDist16Go adds dimensions from.. of SqDist16 to out, four rows per
// sweep over q.
func sqDist16Go(out *[16]float64, q []float32, rows *[16]*float32, from int) {
	for r := 0; r < 16; r += 4 {
		t0, t1 := unsafe.Slice(rows[r], len(q)), unsafe.Slice(rows[r+1], len(q))
		t2, t3 := unsafe.Slice(rows[r+2], len(q)), unsafe.Slice(rows[r+3], len(q))
		d0, d1, d2, d3 := out[r], out[r+1], out[r+2], out[r+3]
		for i := from; i < len(q); i++ {
			v := q[i]
			e0 := float64(v - t0[i])
			e1 := float64(v - t1[i])
			e2 := float64(v - t2[i])
			e3 := float64(v - t3[i])
			d0 += e0 * e0
			d1 += e1 * e1
			d2 += e2 * e2
			d3 += e3 * e3
		}
		out[r], out[r+1], out[r+2], out[r+3] = d0, d1, d2, d3
	}
}

// SqDistScreen16 computes, for each of 16 rows, a float32 screen of
// SqDist16's out[r]: the same float32 differences e = q[i] − rows[r][i],
// each squared and rounded to float32 and added in float32. The first
// len(q)&^15 dimensions are added in 16 lanes, lane l taking the squares
// of dimensions i ≡ l (mod 16) in ascending i from +0; lane l+8 is added
// to lane l, s[l] = a[l] + a[l+8], the eight are folded into ((s0+s4) +
// (s2+s6)) + ((s1+s5) + (s3+s7)), and the remaining dimensions are added
// to that one at a time in ascending order. Every rows[r] must point at
// len(q) readable elements, as for SqDist16.
func SqDistScreen16(out *[16]float32, q []float32, rows *[16]*float32) {
	requireRows(rows)
	blocks := len(q) &^ 15
	if useAVX2 && blocks > 0 {
		sqDistScreen16AVX2(out, &q[0], rows, blocks/16)
	} else {
		sqDistScreen16Go(out, q, rows, blocks)
	}
	if blocks == len(q) {
		return
	}
	for r, p := range rows {
		t := unsafe.Slice(p, len(q))
		sum := out[r]
		for i := blocks; i < len(q); i++ {
			e := q[i] - t[i]
			sum += e * e
		}
		out[r] = sum
	}
}

// sqDistScreen16Go is SqDistScreen16 over the first blocks dimensions,
// lanes and fold: per row, lanes 0–7 and then lanes 8–15, each eight in
// registers over the row's blocks.
func sqDistScreen16Go(out *[16]float32, q []float32, rows *[16]*float32, blocks int) {
	for r, p := range rows {
		t := unsafe.Slice(p, blocks)
		var a [16]float32
		for l := 0; l < 16; l += 8 {
			var a0, a1, a2, a3, a4, a5, a6, a7 float32
			for i := l; i < blocks; i += 16 {
				qb, tb := (*[8]float32)(q[i:]), (*[8]float32)(t[i:])
				e0, e1, e2, e3 := qb[0]-tb[0], qb[1]-tb[1], qb[2]-tb[2], qb[3]-tb[3]
				e4, e5, e6, e7 := qb[4]-tb[4], qb[5]-tb[5], qb[6]-tb[6], qb[7]-tb[7]
				a0 += e0 * e0
				a1 += e1 * e1
				a2 += e2 * e2
				a3 += e3 * e3
				a4 += e4 * e4
				a5 += e5 * e5
				a6 += e6 * e6
				a7 += e7 * e7
			}
			a[l], a[l+1], a[l+2], a[l+3], a[l+4], a[l+5], a[l+6], a[l+7] = a0, a1, a2, a3, a4, a5, a6, a7
		}
		var s [8]float32
		for l := range s {
			s[l] = a[l] + a[l+8]
		}
		out[r] = ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]))
	}
}

// Dot16 computes, for each of 16 rows, out[r] = Σ_i float64(q[i]) ·
// float64(rows[r][i]), added in ascending i from zero. Every rows[r] must
// point at len(q) readable elements, as for SqDist16.
func Dot16(out *[16]float64, q []float32, rows *[16]*float32) {
	requireRows(rows)
	done := 0
	if useAVX2 && len(q) >= 4 {
		done = len(q) &^ 3
		dot16AVX2(out, &q[0], rows, done/4)
	} else {
		*out = [16]float64{}
	}
	if done < len(q) {
		dot16Go(out, q, rows, done)
	}
}

// dot16Go adds dimensions from.. of Dot16 to out, four rows per sweep
// over q.
func dot16Go(out *[16]float64, q []float32, rows *[16]*float32, from int) {
	for r := 0; r < 16; r += 4 {
		t0, t1 := unsafe.Slice(rows[r], len(q)), unsafe.Slice(rows[r+1], len(q))
		t2, t3 := unsafe.Slice(rows[r+2], len(q)), unsafe.Slice(rows[r+3], len(q))
		d0, d1, d2, d3 := out[r], out[r+1], out[r+2], out[r+3]
		for i := from; i < len(q); i++ {
			f := float64(q[i])
			d0 += f * float64(t0[i])
			d1 += f * float64(t1[i])
			d2 += f * float64(t2[i])
			d3 += f * float64(t3[i])
		}
		out[r], out[r+1], out[r+2], out[r+3] = d0, d1, d2, d3
	}
}

func requireRows(rows *[16]*float32) {
	for r, p := range rows {
		if p == nil {
			panic(fmt.Sprintf("simd: row %d of 16 is nil", r))
		}
	}
}

// DotHighHalf computes, for each i, out[i] = the float32 dot product of q
// with the high halves of row rows[i]. The rows are stored 1<<shift to a
// chunk: row r is h = chunks[r>>shift][(r&(1<<shift−1))·stride:], and its
// element d stands for the float32 whose bits are h[d] << 16: the sign,
// exponent and top seven mantissa bits of a stored float, the low sixteen
// bits zero. Each product is rounded to float32. The first len(q)&^31
// dimensions are added in 32 lanes, lane l taking the products of
// dimensions d ≡ l (mod 32) in ascending d from +0; lanes l, l+8, l+16
// and l+24 are folded into s[l] = (a[l]+a[l+8]) + (a[l+16]+a[l+24]), the
// eight into ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)), and the remaining
// dimensions are added to that one at a time in ascending order. While
// the vector kernel works on one row it prefetches the row four places
// further down the list, in whichever chunk that row lies, one cache line
// per 32 dimensions. len(out) must equal len(rows), shift must be below 32,
// stride must not be negative, every row must lie inside its chunk, and
// every chunk from the lowest row's up to the highest row's must hold
// all 1<<shift rows.
func DotHighHalf(out, q []float32, chunks [][]uint16, shift uint, stride int, rows []int32) {
	if len(out) != len(rows) {
		panic(fmt.Sprintf("simd: DotHighHalf of %d rows into %d results", len(rows), len(out)))
	}
	if stride < 0 || shift >= 32 {
		panic(fmt.Sprintf("simd: DotHighHalf with stride %d and chunk shift %d", stride, shift))
	}
	if len(rows) > 0 {
		lo, hi := rows[0], rows[0]
		for _, r := range rows {
			lo, hi = min(lo, r), max(hi, r)
		}
		mask := 1<<shift - 1
		first, last := int(lo)>>shift, int(hi)>>shift
		if lo < 0 || last >= len(chunks) || !rowFits(chunks[last], int(hi)&mask, len(q), stride) {
			panic(fmt.Sprintf("simd: DotHighHalf rows %d..%d of stride %d and length %d outside %d chunks of %d",
				lo, hi, stride, len(q), len(chunks), 1<<shift))
		}
		for c := first; c < last; c++ {
			if !rowFits(chunks[c], mask, len(q), stride) {
				panic(fmt.Sprintf("simd: DotHighHalf chunk %d of %d halves below row %d is not full", c, len(chunks[c]), hi))
			}
		}
	}
	if useAVX2 && len(q) > 0 && len(rows) > 0 {
		dotHighHalfAVX2(&out[0], &q[0], len(q), &chunks[0], shift, stride, &rows[0], len(rows))
		return
	}
	dotHighHalfGo(out, q, chunks, shift, stride, rows)
}

// rowFits reports whether row r of the given stride and length n lies
// inside chunk.
func rowFits(chunk []uint16, r, n, stride int) bool {
	room := len(chunk) - n
	return room >= 0 && (stride == 0 || r <= room/stride)
}

// dotHighHalfGo is DotHighHalf in Go, without the prefetch.
func dotHighHalfGo(out, q []float32, chunks [][]uint16, shift uint, stride int, rows []int32) {
	blocks := len(q) &^ 31
	mask := 1<<shift - 1
	for i, r := range rows {
		h := chunks[int(r)>>shift][(int(r)&mask)*stride:][:len(q)]
		var a [32]float32
		for d := 0; d < blocks; d += 32 {
			for l := range a {
				a[l] += q[d+l] * math.Float32frombits(uint32(h[d+l])<<16)
			}
		}
		var s [8]float32
		for l := range s {
			s[l] = (a[l] + a[l+8]) + (a[l+16] + a[l+24])
		}
		sum := ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]))
		for d := blocks; d < len(q); d++ {
			sum += q[d] * math.Float32frombits(uint32(h[d])<<16)
		}
		out[i] = sum
	}
}

// Grad computes the central-difference gradient of one image row: for
// each j < len(mag), with gx = float64(cur[j+2]-cur[j]) and gy =
// float64(down[j]-up[j]) (each difference taken in float32), it writes
// mag[j] = math.Hypot(gx, gy) and theta[j] = math.Atan2(gy, gx). theta, up
// and down must have len(mag) elements and cur two more; the outputs must
// not overlap the inputs.
func Grad(mag, theta []float64, up, cur, down []float32) {
	n := len(mag)
	if len(theta) != n || len(up) != n || len(down) != n || len(cur) != n+2 {
		panic(fmt.Sprintf("simd: Grad of %d pixels with %d angles, rows of %d, %d and %d",
			n, len(theta), len(up), len(cur), len(down)))
	}
	if !useAVX2 || n < 4 {
		gradGo(mag, theta, up, cur, down, 0, n)
		return
	}
	for done := 0; done < n; {
		// A short last group moves back to end at n: lanes are
		// independent, so the pixels it repeats get the same bits again.
		start := min(done, n-4)
		end := start + (n-start)&^3
		done = start + gradAVX2(&mag[start], &theta[start], &up[start], &cur[start], &down[start], end-start)
		if done < end {
			// The kernel stops at a group with a non-finite difference:
			// math returns its own NaN and has Inf cases of its own.
			gradGo(mag, theta, up, cur, down, done, done+4)
			done += 4
		}
	}
}

// gradGo is Grad over pixels from..to-1.
func gradGo(mag, theta []float64, up, cur, down []float32, from, to int) {
	for j := from; j < to; j++ {
		gx := float64(cur[j+2] - cur[j])
		gy := float64(down[j] - up[j])
		mag[j] = math.Hypot(gx, gy)
		theta[j] = math.Atan2(gy, gx)
	}
}

// Extrema scans 8·len(mask) consecutive pixels of one DoG row for SIFT
// extrema: bit b of mask[k] is set when pixel p = 8k+b, of value v, passes
// the contrast test — math.Abs(float64(v)) < threshold is false — and is a
// strict maximum or strict minimum of its 26 neighbours in the levels
// below, at and above it. Neighbours are compared with ordered >= and <=,
// so a NaN on either side of a comparison disqualifies nothing. below, cur
// and above are windows of the three levels with row stride w, at least
// the pixels and their left and right neighbours: each starts at the
// upper-left neighbour of pixel 0, which is therefore at index w+1, and
// holds exactly 2w+8·len(mask)+2 elements.
func Extrema(mask []uint8, below, cur, above []float32, w int, threshold float64) {
	n := 2*w + 8*len(mask) + 2
	if w < 8*len(mask)+2 || len(below) != n || len(cur) != n || len(above) != n {
		panic(fmt.Sprintf("simd: Extrema of %d pixels at stride %d over windows of %d, %d and %d",
			8*len(mask), w, len(below), len(cur), len(above)))
	}
	if len(mask) == 0 {
		return
	}
	if useAVX2 {
		extremaAVX2(&mask[0], len(mask), &below[0], &cur[0], &above[0], w, ceil32(threshold))
		return
	}
	extremaGo(mask, below, cur, above, w, threshold)
}

// ceil32 is the least float32 not below t. For every float32 a,
// float64(a) < t exactly when a < ceil32(t): a float32 below ceil32(t) is
// at most its predecessor, which is below t, and one at or above it is at
// least t. A NaN t converts to NaN, and both comparisons always fail.
func ceil32(t float64) float32 {
	f := float32(t)
	if float64(f) < t {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// extremaGo is Extrema one pixel at a time.
func extremaGo(mask []uint8, below, cur, above []float32, w int, threshold float64) {
	for k := range mask {
		var m uint8
		for b := 0; b < 8; b++ {
			i := w + 1 + 8*k + b
			if math.Abs(float64(cur[i])) < threshold {
				continue
			}
			if extremum(below, cur, above, w, i) {
				m |= 1 << b
			}
		}
		mask[k] = m
	}
}

// DescGrid is the cell grid of a SIFT descriptor, 4×4 cells of 8
// orientation bins, with a ring of one cell around it: cell (cy, cx), for
// cy and cx in -1..4, holds bins ((cy+1)·6 + cx+1)·8 to that plus 7. The
// ring takes the shares the trilinear spread gives to cells outside the
// 4×4 grid, so no pixel needs a test for them; the descriptor is the inner
// 16 cells and the ring is thrown away.
type DescGrid [6 * 6 * 8]float32

// DescRow adds one row of gradient-patch pixels to a SIFT descriptor: for
// each pixel i with mag[i] ≠ 0 it rotates the pixel's offset (colCos[i] −
// rowSin, colSin[i] + rowCos) into the keypoint frame, divides it by
// binWidth into bin coordinates and, if they lie inside the window, spreads
// mag[i]·weight[i] trilinearly over the two nearest cells in each direction
// and the two nearest of the 8 orientation bins of theta[i] − orientation.
// Each of the (up to) eight bins a pixel reaches gets one float32 add, in
// pixel order. All six slices must have the same length, and grid must
// hold no −0 (a zeroed grid holds none, and no add makes one), since the
// vector path adds +0 where the twin adds nothing (see the package
// comment). The twin, descRowGo, is the loop body computeDescriptor in
// package sift had before this kernel, and defines every rounding.
func DescRow(grid *DescGrid, mag, theta, weight, colCos, colSin []float64, rowSin, rowCos, binWidth, orientation float64) {
	n := len(mag)
	if len(theta) != n || len(weight) != n || len(colCos) != n || len(colSin) != n {
		panic(fmt.Sprintf("simd: DescRow of %d pixels with %d angles, %d weights and %d and %d column terms",
			n, len(theta), len(weight), len(colCos), len(colSin)))
	}
	done := 0
	for useAVX2 && done < n {
		done += descRowAVX2(grid, &mag[done], &theta[done], &weight[done], &colCos[done], &colSin[done], n-done,
			rowSin, rowCos, binWidth, orientation)
		if done < n {
			// The kernel stops at a group it cannot replay: a non-finite
			// operand, or an angle the twin would wrap more than once.
			next := min(done+4, n)
			descRowGo(grid, mag, theta, weight, colCos, colSin, rowSin, rowCos, binWidth, orientation, done, next)
			done = next
		}
	}
	descRowGo(grid, mag, theta, weight, colCos, colSin, rowSin, rowCos, binWidth, orientation, done, n)
}

// descRowGo is DescRow over pixels from..to-1.
func descRowGo(grid *DescGrid, mag, theta, weight, colCos, colSin []float64, rowSin, rowCos, binWidth, orientation float64, from, to int) {
	const grid4, bins = 4, 8
	for i := from; i < to; i++ {
		m := mag[i]
		if m == 0 {
			continue
		}
		// Rotate the offset into the keypoint frame; continuous bin
		// coordinates in (-1, 4).
		rx := (colCos[i] - rowSin) / binWidth
		ry := (colSin[i] + rowCos) / binWidth
		bx := rx + grid4/2 - 0.5
		by := ry + grid4/2 - 0.5
		if bx <= -1 || bx >= grid4 || by <= -1 || by >= grid4 {
			continue
		}
		rel := theta[i] - orientation
		for rel < 0 {
			rel += 2 * math.Pi
		}
		for rel >= 2*math.Pi {
			rel -= 2 * math.Pi
		}
		ob := rel / (2 * math.Pi) * bins
		// A floor is a truncation or -1; the orientation bin wraps with a
		// mask.
		x0, y0 := int(bx), int(by)
		if bx < 0 {
			x0 = -1
		}
		if by < 0 {
			y0 = -1
		}
		o0 := int(ob)
		fx := bx - float64(x0)
		fy := by - float64(y0)
		fo := ob - float64(o0)
		o0, o1 := o0&(bins-1), (o0+1)&(bins-1)
		w := m * weight[i]
		// Cell (y0, x0) and its neighbours right, below and below right;
		// each gets the product w·wy·wx·wo, associated in that order.
		c := ((y0+1)*6 + x0 + 1) * bins
		wy := w * (1 - fy)
		wx := wy * (1 - fx)
		grid[c+o0] += float32(wx * (1 - fo))
		grid[c+o1] += float32(wx * fo)
		wx = wy * fx
		grid[c+bins+o0] += float32(wx * (1 - fo))
		grid[c+bins+o1] += float32(wx * fo)
		wy = w * fy
		wx = wy * (1 - fx)
		grid[c+6*bins+o0] += float32(wx * (1 - fo))
		grid[c+6*bins+o1] += float32(wx * fo)
		wx = wy * fx
		grid[c+7*bins+o0] += float32(wx * (1 - fo))
		grid[c+7*bins+o1] += float32(wx * fo)
	}
}

// extremum reports whether cur[i] is a strict maximum or minimum of the 26
// pixels at offsets dy·w+dx (dy, dx in -1..1) from i in the three levels,
// the centre itself excepted.
func extremum(below, cur, above []float32, w, i int) bool {
	v := cur[i]
	isMax, isMin := true, true
	for l, img := range [3][]float32{below, cur, above} {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				if l == 1 && dy == 0 && dx == 0 {
					continue
				}
				n := img[i+dy*w+dx]
				if n >= v {
					isMax = false
				}
				if n <= v {
					isMin = false
				}
			}
		}
	}
	return isMax || isMin
}
