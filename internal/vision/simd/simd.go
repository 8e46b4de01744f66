// Package simd holds the repo's only assembly: AVX2 forms of the three
// float32 inner loops the frame ledger is spent on — the separable
// convolution of the SIFT pyramid, the ratio test's squared distances and
// the LSH ranking's dot products.
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
// loops and test references are all fused alike. Which path ran is
// therefore invisible in the output, and there is nothing to configure:
// it is picked once at start-up from CPUID.
package simd

import (
	"fmt"
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
