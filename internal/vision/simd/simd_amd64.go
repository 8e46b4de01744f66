package simd

// haveAVX2 reports whether the CPU has AVX2 and the OS saves and restores
// the YMM registers across context switches (OSXSAVE set and XCR0
// enabling both the SSE and the AVX state) — the second half is what
// makes the first safe to use.
func haveAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0. It must not be called unless
// CPUID reported OSXSAVE.
func xgetbv() (eax, edx uint32)

// convAVX2 is Conv over the first n pixels; n must be a positive multiple
// of 8 and taps positive.
//
//go:noescape
func convAVX2(dst *float32, n int, src *float32, offs *int, k *float32, taps int)

// subAVX2 is Sub over the first n elements; n must be a multiple of 8.
//
//go:noescape
func subAVX2(dst, a, b *float32, n int)

// sqDist16AVX2 is SqDist16 over the first 4·blocks dimensions.
//
//go:noescape
func sqDist16AVX2(out *[16]float64, q *float32, rows *[16]*float32, blocks int)

// dot16AVX2 is Dot16 over the first 4·blocks dimensions.
//
//go:noescape
func dot16AVX2(out *[16]float64, q *float32, rows *[16]*float32, blocks int)

// dotHighHalfAVX2 is DotHighHalf over count rows, n and count positive.
//
//go:noescape
func dotHighHalfAVX2(out, q *float32, n int, chunks *[]uint16, shift uint, stride int, rows *int32, count int)

// gradAVX2 is Grad over the first n pixels, n a multiple of 4, four at a
// time. It stops before the first group of four with a non-finite
// difference and returns the number of pixels written.
//
//go:noescape
func gradAVX2(mag, theta *float64, up, cur, down *float32, n int) int

// extremaAVX2 is Extrema over groups·8 pixels, groups positive, with the
// threshold already rounded up to float32 by ceil32.
//
//go:noescape
func extremaAVX2(mask *uint8, groups int, below, cur, above *float32, w int, min float32)

// descRowAVX2 is DescRow over the first n pixels, n positive, four at a
// time, the last group reading only the pixels that are left. It stops
// before the first group it cannot replay and returns the number of
// pixels added.
//
//go:noescape
func descRowAVX2(grid *DescGrid, mag, theta, weight, colCos, colSin *float64, n int, rowSin, rowCos, binWidth, orientation float64) int
