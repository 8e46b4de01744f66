//go:build !amd64

package simd

func haveAVX2() bool { return false }

// The vector kernels exist on amd64 only; useAVX2 is never true here, so
// these are never reached.

func convAVX2(dst *float32, n int, src *float32, offs *int, k *float32, taps int) {
	panic("simd: no vector kernels on this architecture")
}

func subAVX2(dst, a, b *float32, n int) {
	panic("simd: no vector kernels on this architecture")
}

func sqDist16AVX2(out *[16]float64, q *float32, rows *[16]*float32, blocks int) {
	panic("simd: no vector kernels on this architecture")
}

func sqDistScreen16AVX2(out *[16]float32, q *float32, rows *[16]*float32, blocks int) {
	panic("simd: no vector kernels on this architecture")
}

func dot16AVX2(out *[16]float64, q *float32, rows *[16]*float32, blocks int) {
	panic("simd: no vector kernels on this architecture")
}

func dotHighHalfAVX2(out, q *float32, n int, chunks *[]uint16, shift uint, stride int, rows *int32, count int) {
	panic("simd: no vector kernels on this architecture")
}

func gradAVX2(mag, theta *float64, up, cur, down *float32, n int) int {
	panic("simd: no vector kernels on this architecture")
}

func extremaAVX2(mask *uint8, groups int, below, cur, above *float32, w int, min float32) {
	panic("simd: no vector kernels on this architecture")
}

func descRowAVX2(grid *DescGrid, mag, theta, weight, colCos, colSin *float64, n int, rowSin, rowCos, binWidth, orientation float64) int {
	panic("simd: no vector kernels on this architecture")
}
