package simd_test

// The vector kernels against their pure-Go twins and against one-term-at-
// a-time references, for exact bit equality. On a machine without AVX2
// (or under the forceGo link flag) the two paths are the same code and the
// comparisons against the references are what is left.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"github.com/edge-mar/scatter/internal/trace"
	"github.com/edge-mar/scatter/internal/vision/imgproc"
	"github.com/edge-mar/scatter/internal/vision/sift"
	"github.com/edge-mar/scatter/internal/vision/simd"
)

var nan32 = float32(math.NaN())

// awkward draws mostly ordinary values, salted with the ones a reordered
// or fused sum would give away: signed zeros, denormals, infinities.
func awkward(rng *rand.Rand) float32 {
	switch rng.Intn(24) {
	case 0:
		return 0
	case 1:
		return float32(math.Copysign(0, -1))
	case 2:
		return math.Float32frombits(uint32(1 + rng.Intn(1<<20))) // denormal
	case 3:
		return -math.Float32frombits(uint32(1 + rng.Intn(1<<20)))
	case 4:
		return float32(math.Inf(1 - 2*rng.Intn(2)))
	default:
		return float32(rng.NormFloat64())
	}
}

// unaligned returns n awkward values in a slice that starts shift elements
// into its allocation, so vector loads cannot count on alignment.
func unaligned(rng *rand.Rand, n, shift int) []float32 {
	s := make([]float32, n+shift)[shift:]
	for i := range s {
		s[i] = awkward(rng)
	}
	return s
}

func nans(n, shift int) []float32 {
	s := make([]float32, n+shift)[shift:]
	for i := range s {
		s[i] = nan32
	}
	return s
}

// same32 is bit equality, except that any NaN equals any NaN: which
// payload an invalid sum carries is the one thing the paths may differ in.
func same32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

func same64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func requireSame32(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !same32(got[i], want[i]) {
			t.Fatalf("%s: [%d] = %x (%g), want %x (%g)", what, i,
				math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

func requireSame64(t *testing.T, what string, got, want *[16]float64) {
	t.Helper()
	for i := range want {
		if !same64(got[i], want[i]) {
			t.Fatalf("%s: row %d = %x (%g), want %x (%g)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// refConv is Conv one pixel and one tap at a time.
func refConv(dst, src []float32, offs []int, k []float32) {
	for j := range dst {
		var acc float32
		for i, kv := range k {
			acc += src[offs[i]+j] * kv
		}
		dst[j] = acc
	}
}

// checkConv runs Conv on both paths into NaN-filled destinations and
// requires each to equal the reference.
func checkConv(t *testing.T, what string, n int, src []float32, offs []int, k []float32, shift int) {
	t.Helper()
	want := make([]float32, n)
	refConv(want, src, offs, k)
	got := nans(n, shift)
	simd.Conv(got, src, offs, k)
	requireSame32(t, what, got, want)
	got = nans(n, shift)
	simd.GoOnly(func() { simd.Conv(got, src, offs, k) })
	requireSame32(t, what+" (Go twin)", got, want)
}

var convTaps = []int{3, 5, 9, 11, 13, 17, 21, 33}

func TestConvMatchesTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	widths := []int{160, 320}
	for w := 1; w <= 67; w++ {
		widths = append(widths, w)
	}
	for _, w := range widths {
		for _, taps := range convTaps {
			shift := 1 + (w+taps)%7
			k := unaligned(rng, taps, shift)

			// Horizontal: consecutive offsets into one padded row.
			padded := unaligned(rng, w+taps-1, shift)
			offs := make([]int, taps)
			for i := range offs {
				offs[i] = i
			}
			checkConv(t, fmt.Sprintf("horizontal w=%d taps=%d", w, taps), w, padded, offs, k, shift)

			// Vertical: rows of a small image in clamped order, as
			// imgproc.convolveV lists them near its top and bottom.
			const h = 5
			img := unaligned(rng, w*h, shift)
			for y := 0; y < h; y++ {
				for i := range offs {
					offs[i] = min(max(y+i-taps/2, 0), h-1) * w
				}
				checkConv(t, fmt.Sprintf("vertical w=%d taps=%d y=%d", w, taps, y), w, img, offs, k, shift)
			}
		}
	}
	// No taps at all is an empty sum.
	checkConv(t, "no taps", 19, unaligned(rng, 19, 0), nil, nil, 3)
}

func TestSubMatchesTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 67; n++ {
		shift := 1 + n%7
		a, b := unaligned(rng, n, shift), unaligned(rng, n, (shift+3)%8)
		want := make([]float32, n)
		for i := range want {
			want[i] = a[i] - b[i]
		}
		run := func(what string, sub func(dst, a, b []float32)) {
			dst := nans(n, shift)
			sub(dst, a, b)
			requireSame32(t, fmt.Sprintf("%s n=%d", what, n), dst, want)
			overA := append([]float32(nil), a...)
			sub(overA, overA, b)
			requireSame32(t, fmt.Sprintf("%s n=%d dst=a", what, n), overA, want)
			overB := append([]float32(nil), b...)
			sub(overB, a, overB)
			requireSame32(t, fmt.Sprintf("%s n=%d dst=b", what, n), overB, want)
		}
		run("Sub", simd.Sub)
		run("Sub (Go twin)", func(dst, a, b []float32) { simd.GoOnly(func() { simd.Sub(dst, a, b) }) })
	}
}

// refSqDist is sift.L2Sq's loop for any length.
func refSqDist(q, row []float32) float64 {
	var sum float64
	for i := range q {
		d := float64(q[i] - row[i])
		sum += d * d
	}
	return sum
}

// refDot is the loop of lsh's one-row dot product.
func refDot(q, row []float32) (d float64) {
	for i, x := range q {
		d += float64(x) * float64(row[i])
	}
	return
}

// check16 runs both 16-row kernels on both paths over the given rows
// against the one-row references; out starts dirty.
func check16(t *testing.T, what string, q []float32, rows [][]float32) {
	t.Helper()
	var ptrs [16]*float32
	var wantSq, wantDot [16]float64
	for r, row := range rows {
		ptrs[r] = unsafe.SliceData(row)
		wantSq[r], wantDot[r] = refSqDist(q, row), refDot(q, row)
	}
	for _, kernel := range []struct {
		name string
		run  func(out *[16]float64, q []float32, rows *[16]*float32)
		want *[16]float64
	}{{"SqDist16", simd.SqDist16, &wantSq}, {"Dot16", simd.Dot16, &wantDot}} {
		var got [16]float64
		for r := range got {
			got[r] = math.NaN()
		}
		kernel.run(&got, q, &ptrs)
		requireSame64(t, kernel.name+" "+what, &got, kernel.want)
		for r := range got {
			got[r] = math.NaN()
		}
		simd.GoOnly(func() { kernel.run(&got, q, &ptrs) })
		requireSame64(t, kernel.name+" (Go twin) "+what, &got, kernel.want)
	}
}

func TestRows16MatchTwinOnRandomRows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dim := range []int{1, 2, 3, 4, 5, 7, 8, 128, 384, 385} {
		for round := 0; round < 20; round++ {
			shift := 1 + (dim+round)%7
			q := unaligned(rng, dim, shift)
			rows := make([][]float32, 16)
			for r := range rows {
				rows[r] = unaligned(rng, dim, (shift+r)%8)
			}
			check16(t, fmt.Sprintf("dim=%d round=%d", dim, round), q, rows)
		}
	}
}

// TestRows16MatchOnClipDescriptors is the ratio test's own data: every
// descriptor of one clip frame against the descriptors of another, 16 at
// a time, with sift.L2Sq itself as the distance reference.
func TestRows16MatchOnClipDescriptors(t *testing.T) {
	gen := trace.NewGenerator(trace.Config{W: 320, H: 180, Seed: 7})
	det := sift.New(sift.Defaults())
	query, train := det.Detect(gen.GrayFrame(0)), det.Detect(gen.GrayFrame(17))
	if len(query) < 50 || len(train) < 50 {
		t.Fatalf("clip frames yield only %d and %d features", len(query), len(train))
	}
	if testing.Short() {
		query = query[:10]
	}
	for qi := range query {
		q := query[qi].Desc[:]
		for ti := 0; ti+16 <= len(train); ti += 16 {
			rows := make([][]float32, 16)
			for r := range rows {
				rows[r] = train[ti+r].Desc[:]
			}
			check16(t, fmt.Sprintf("query %d train %d..", qi, ti), q, rows)
			var ptrs [16]*float32
			for r := range ptrs {
				ptrs[r] = &train[ti+r].Desc[0]
			}
			var got [16]float64
			simd.SqDist16(&got, q, &ptrs)
			for r, d := range got {
				if want := sift.L2Sq(&query[qi].Desc, &train[ti+r].Desc); math.Float64bits(d) != math.Float64bits(want) {
					t.Fatalf("query %d train %d: SqDist16 %x, sift.L2Sq %x", qi, ti+r, math.Float64bits(d), math.Float64bits(want))
				}
			}
		}
	}
}

// TestBlurMatchesTwin drives the convolution the way the pyramid does —
// through imgproc, on a clip frame — on both paths.
func TestBlurMatchesTwin(t *testing.T) {
	frame := trace.NewGenerator(trace.Config{W: 320, H: 180, Seed: 7}).GrayFrame(0)
	for _, sigma := range []float64{0.8, 1.6, 3.1} {
		got := imgproc.GaussianBlurWorkers(frame, sigma, 1)
		var want *imgproc.Gray
		simd.GoOnly(func() { want = imgproc.GaussianBlurWorkers(frame, sigma, 1) })
		requireSame32(t, fmt.Sprintf("blur sigma %.1f", sigma), got.Pix, want.Pix)
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: accepted", what)
		}
	}()
	f()
}

// TestWrappersRefuse: every length relation a kernel relies on is checked
// in Go before the call, on both paths.
func TestWrappersRefuse(t *testing.T) {
	f := func(n int) []float32 { return make([]float32, n) }
	var out [16]float64
	var full [16]*float32
	for r := range full {
		full[r] = &f(8)[0]
	}
	missing := func(r int) *[16]*float32 {
		rows := full
		rows[r] = nil
		return &rows
	}
	cases := []struct {
		what string
		call func()
	}{
		{"Conv: padded row one short", func() { simd.Conv(f(16), f(16+3-2), []int{0, 1, 2}, f(3)) }},
		{"Conv: last window one past the source", func() { simd.Conv(f(16), f(64), []int{0, 16, 49}, f(3)) }},
		{"Conv: negative offset", func() { simd.Conv(f(16), f(64), []int{0, -1, 2}, f(3)) }},
		{"Conv: fewer offsets than taps", func() { simd.Conv(f(16), f(64), []int{0, 1}, f(3)) }},
		{"Conv: more offsets than taps", func() { simd.Conv(f(16), f(64), []int{0, 1, 2, 3}, f(3)) }},
		{"Conv: dst longer than src", func() { simd.Conv(f(16), f(8), []int{0}, f(1)) }},
		{"Sub: short a", func() { simd.Sub(f(16), f(15), f(16)) }},
		{"Sub: short b", func() { simd.Sub(f(16), f(16), f(15)) }},
		{"Sub: long a", func() { simd.Sub(f(16), f(17), f(16)) }},
		{"SqDist16: first row nil", func() { simd.SqDist16(&out, f(8), missing(0)) }},
		{"SqDist16: last row nil", func() { simd.SqDist16(&out, f(8), missing(15)) }},
		{"Dot16: first row nil", func() { simd.Dot16(&out, f(8), missing(0)) }},
		{"Dot16: last row nil", func() { simd.Dot16(&out, f(8), missing(15)) }},
	}
	for _, c := range cases {
		mustPanic(t, c.what, c.call)
		simd.GoOnly(func() { mustPanic(t, c.what+" (Go twin)", c.call) })
	}
	// The boundary cases the refusals sit next to are accepted.
	simd.Conv(f(16), f(16+3-1), []int{0, 1, 2}, f(3))
	simd.Conv(f(16), f(64), []int{0, 16, 48}, f(3))
	simd.Conv(nil, nil, nil, nil)
	simd.Sub(nil, nil, nil)
	simd.SqDist16(&out, nil, &full)
	simd.Dot16(&out, nil, &full)
}

func TestWrappersDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dst, src, k := make([]float32, 67), unaligned(rng, 67+12, 0), unaligned(rng, 13, 0)
	offs := make([]int, 13)
	for i := range offs {
		offs[i] = i
	}
	q := unaligned(rng, 130, 0)
	var rows [16]*float32
	for r := range rows {
		rows[r] = &unaligned(rng, 130, 0)[0]
	}
	var out [16]float64
	calls := func() {
		simd.Conv(dst, src, offs, k)
		simd.Sub(dst, src[:67], src[12:])
		simd.SqDist16(&out, q, &rows)
		simd.Dot16(&out, q, &rows)
	}
	if n := testing.AllocsPerRun(50, calls); n != 0 {
		t.Errorf("vector path: %v allocations per run, want 0", n)
	}
	simd.GoOnly(func() {
		if n := testing.AllocsPerRun(50, calls); n != 0 {
			t.Errorf("Go twins: %v allocations per run, want 0", n)
		}
	})
}

// BenchmarkKernels times each wrapper on the shapes the pipeline gives it
// (a 320-pixel row under 13 taps, 128-dimensional descriptors), vector
// path against Go twin.
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	ordinary := func(n int) []float32 { // no denormals or infinities: those time the microcode
		s := make([]float32, n)
		for i := range s {
			s[i] = rng.Float32()
		}
		return s
	}
	dst, src, k := make([]float32, 320), ordinary(320+12), ordinary(13)
	offs := make([]int, 13)
	for i := range offs {
		offs[i] = i
	}
	q := ordinary(128)
	var rows [16]*float32
	for r := range rows {
		rows[r] = &ordinary(128)[0]
	}
	var out [16]float64
	kernels := []struct {
		name string
		call func()
	}{
		{"Conv", func() { simd.Conv(dst, src, offs, k) }},
		{"Sub", func() { simd.Sub(dst, src[:320], src[12:]) }},
		{"SqDist16", func() { simd.SqDist16(&out, q, &rows) }},
		{"Dot16", func() { simd.Dot16(&out, q, &rows) }},
	}
	for _, kn := range kernels {
		loop := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kn.call()
			}
		}
		b.Run(kn.name+"/vector", loop)
		b.Run(kn.name+"/go", func(b *testing.B) { simd.GoOnly(func() { loop(b) }) })
	}
}
