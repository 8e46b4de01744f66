//go:build unix

package simd_test

import (
	"math"
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

	"github.com/edge-mar/scatter/internal/vision/simd"
)

// guarded hands out slices that sit flush against an inaccessible page:
// one past the end of the slice (or one before its start) faults.
type guarded struct {
	t    *testing.T
	page int
	rng  *rand.Rand
}

// bytes maps three pages, makes the outer two inaccessible and returns n
// bytes ending exactly at the upper boundary (atEnd) or starting exactly
// at the lower one.
func (g *guarded) bytes(n int, atEnd bool) []byte {
	g.t.Helper()
	if n > g.page {
		g.t.Fatalf("%d bytes do not fit a %d-byte page", n, g.page)
	}
	mem, err := syscall.Mmap(-1, 0, 3*g.page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		g.t.Skipf("mmap: %v", err)
	}
	g.t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test-only mapping; nothing to do about a failure
	for _, p := range []int{0, 2} {
		if err := syscall.Mprotect(mem[p*g.page:(p+1)*g.page], syscall.PROT_NONE); err != nil {
			g.t.Skipf("mprotect: %v", err)
		}
	}
	start := g.page
	if atEnd {
		start = 2*g.page - n
	}
	return mem[start:][:n:n]
}

// slice is bytes holding n awkward float32 values.
func (g *guarded) slice(n int, atEnd bool) []float32 {
	g.t.Helper()
	mem := g.bytes(4*n, atEnd)
	if n == 0 {
		return nil
	}
	s := unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), n)
	for i := range s {
		s[i] = awkward(g.rng)
	}
	return s
}

// slice64 is bytes holding n NaN float64 values.
func (g *guarded) slice64(n int, atEnd bool) []float64 {
	g.t.Helper()
	mem := g.bytes(8*n, atEnd)
	if n == 0 {
		return nil
	}
	s := unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

// halves is bytes holding n random high halves of floats.
func (g *guarded) halves(n int, atEnd bool) []uint16 {
	g.t.Helper()
	mem := g.bytes(2*n, atEnd)
	s := unsafe.Slice((*uint16)(unsafe.Pointer(&mem[0])), n)
	for i := range s {
		s[i] = uint16(g.rng.Uint32())
	}
	return s
}

// TestKernelsStayInsideTheirSlices runs every kernel, on both paths, over
// operands that end (and then start) exactly at a page the process may not
// touch: reading or writing one byte outside a slice is a fault, which
// SetPanicOnFault turns into a test failure instead of a crash.
func TestKernelsStayInsideTheirSlices(t *testing.T) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	g := &guarded{t: t, page: syscall.Getpagesize(), rng: rand.New(rand.NewSource(6))}
	run := func(what string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: %v", what, r)
			}
		}()
		f()
		simd.GoOnly(f)
	}
	for _, atEnd := range []bool{true, false} {
		for _, n := range []int{1, 7, 8, 9, 31, 32, 33, 40, 67, 320} {
			for _, taps := range []int{1, 3, 13, 33} {
				dst, k := g.slice(n, atEnd), g.slice(taps, atEnd)
				offs := make([]int, taps)
				// Horizontal: the last window ends with the padded row.
				padded := g.slice(n+taps-1, atEnd)
				for i := range offs {
					offs[i] = i
				}
				run("Conv, consecutive offsets", func() { simd.Conv(dst, padded, offs, k) })
				// Vertical: three rows, the taps cycling over them, the
				// last row ending with the source.
				img := g.slice(3*n, atEnd)
				for i := range offs {
					offs[i] = (i % 3) * n
				}
				run("Conv, row offsets", func() { simd.Conv(dst, img, offs, k) })
			}
			a, b, dst := g.slice(n, atEnd), g.slice(n, atEnd), g.slice(n, atEnd)
			run("Sub", func() { simd.Sub(dst, a, b) })
			run("Sub in place", func() { simd.Sub(a, a, b) })
			up, cur, down := g.slice(n, atEnd), g.slice(n+2, atEnd), g.slice(n, atEnd)
			for _, s := range [][]float32{up, cur, down} {
				for i, v := range s {
					if math.IsInf(float64(v), 0) { // keep every group on the vector path
						s[i] = 1
					}
				}
			}
			mag, theta := g.slice64(n, atEnd), g.slice64(n, atEnd)
			run("Grad", func() { simd.Grad(mag, theta, up, cur, down) })
			// A descriptor row whose pixels all fall inside the window, so
			// that every group reaches the grid, itself guarded.
			weight, colCos, colSin := g.slice64(n, atEnd), g.slice64(n, atEnd), g.slice64(n, atEnd)
			for i := range mag {
				mag[i], theta[i], weight[i] = 1+float64(i%3), float64(i%7)-3, 0.5
				colCos[i], colSin[i] = float64(i%40-20)/10, float64(i%9-4)/4
			}
			grid := (*simd.DescGrid)(unsafe.Pointer(&g.bytes(int(unsafe.Sizeof(simd.DescGrid{})), atEnd)[0]))
			run("DescRow", func() { simd.DescRow(grid, mag, theta, weight, colCos, colSin, 0.1, -0.2, 1, 0.5) })
		}
		for _, groups := range []int{1, 2, 3, 8, 39} {
			// Rows exactly as wide as the pixels and their two neighbours,
			// and rows with more to their right.
			for _, w := range []int{8*groups + 2, 8*groups + 9} {
				n := 2*w + 8*groups + 2
				if 4*n > g.page {
					continue
				}
				below, cur, above := g.slice(n, atEnd), g.slice(n, atEnd), g.slice(n, atEnd)
				mask := g.bytes(groups, atEnd)
				run("Extrema", func() { simd.Extrema(mask, below, cur, above, w, 0.03) })
			}
		}
		for _, dim := range []int{1, 3, 4, 5, 16, 17, 128, 385} {
			q := g.slice(dim, atEnd)
			var rows [16]*float32
			for r := range rows {
				rows[r] = &g.slice(dim, atEnd)[0]
			}
			outMem := g.slice(32, atEnd) // 16 float64
			out := (*[16]float64)(unsafe.Pointer(&outMem[0]))
			run("SqDist16", func() { simd.SqDist16(out, q, &rows) })
			out32 := (*[16]float32)(unsafe.Pointer(&g.slice(16, atEnd)[0]))
			run("SqDistScreen16", func() { simd.SqDistScreen16(out32, q, &rows) })
			run("Dot16", func() { simd.Dot16(out, q, &rows) })
			// Three rows of a wider stride in chunks of two, each chunk,
			// the list and the results against the guard; the last row of
			// each chunk ends it.
			stride := dim + 3
			chunks := [][]uint16{g.halves(stride+dim, atEnd), g.halves(dim, atEnd)}
			list := unsafe.Slice((*int32)(unsafe.Pointer(&g.bytes(4*4, atEnd)[0])), 4)
			copy(list, []int32{1, 0, 2, 2})
			res := g.slice(len(list), atEnd)
			run("DotHighHalf", func() { simd.DotHighHalf(res, q, chunks, 1, stride, list) })
		}
	}
}
