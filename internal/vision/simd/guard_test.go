//go:build unix

package simd_test

import (
	"math/rand"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

	"github.com/edge-mar/scatter/internal/vision/simd"
)

// guarded hands out float32 slices that sit flush against an inaccessible
// page: one past the end of the slice (or one before its start) faults.
type guarded struct {
	t    *testing.T
	page int
	rng  *rand.Rand
}

// slice maps three pages, makes the outer two inaccessible and returns n
// awkward values ending exactly at the upper boundary (atEnd) or starting
// exactly at the lower one.
func (g *guarded) slice(n int, atEnd bool) []float32 {
	g.t.Helper()
	if 4*n > g.page {
		g.t.Fatalf("%d floats do not fit a %d-byte page", n, g.page)
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
		start = 2*g.page - 4*n
	}
	if n == 0 {
		return nil
	}
	s := unsafe.Slice((*float32)(unsafe.Pointer(&mem[start])), n)
	for i := range s {
		s[i] = awkward(g.rng)
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
		}
		for _, dim := range []int{1, 3, 4, 5, 128, 385} {
			q := g.slice(dim, atEnd)
			var rows [16]*float32
			for r := range rows {
				rows[r] = &g.slice(dim, atEnd)[0]
			}
			outMem := g.slice(32, atEnd) // 16 float64
			out := (*[16]float64)(unsafe.Pointer(&outMem[0]))
			run("SqDist16", func() { simd.SqDist16(out, q, &rows) })
			run("Dot16", func() { simd.Dot16(out, q, &rows) })
		}
	}
}
