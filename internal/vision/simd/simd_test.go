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
	"time"
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

func requireSame64(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !same64(got[i], want[i]) {
			t.Fatalf("%s: [%d] = %x (%g), want %x (%g)", what, i,
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

// refSqDist is the ratio test's one-row squared distance, for any length.
func refSqDist(q, row []float32) float64 {
	var sum float64
	for i := range q {
		d := float64(q[i] - row[i])
		sum += d * d
	}
	return sum
}

// refDot is the one-row dot product lsh's hash and ranking are defined by.
func refDot(q, row []float32) (d float64) {
	for i, x := range q {
		d += float64(x) * float64(row[i])
	}
	return
}

// check16 runs the three 16-row kernels on both paths over the given
// rows against the one-row references; out starts dirty.
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
		requireSame64(t, kernel.name+" "+what, got[:], kernel.want[:])
		for r := range got {
			got[r] = math.NaN()
		}
		simd.GoOnly(func() { kernel.run(&got, q, &ptrs) })
		requireSame64(t, kernel.name+" (Go twin) "+what, got[:], kernel.want[:])
	}
	checkScreen16(t, what, q, &ptrs)
}

// refSqDistScreen is SqDistScreen16 for one row by its definition: each
// dimension's rounded square goes to lane i mod 16 while whole blocks of
// 16 last, then the lane pairs and the fold, then the rest in order.
func refSqDistScreen(q, row []float32) float32 {
	var lane [16]float32
	blocks := len(q) &^ 15
	for i := 0; i < blocks; i++ {
		e := q[i] - row[i]
		lane[i%16] += e * e
	}
	var s [8]float32
	for l := range s {
		s[l] = lane[l] + lane[l+8]
	}
	sum := ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]))
	for i := blocks; i < len(q); i++ {
		e := q[i] - row[i]
		sum += e * e
	}
	return sum
}

// checkScreen16 runs SqDistScreen16 on both paths into NaN-filled results
// and requires both to equal refSqDistScreen row by row.
func checkScreen16(t *testing.T, what string, q []float32, rows *[16]*float32) {
	t.Helper()
	var want [16]float32
	for r, p := range rows {
		want[r] = refSqDistScreen(q, unsafe.Slice(p, len(q)))
	}
	for _, path := range []struct {
		name string
		run  func(f func())
	}{{"SqDistScreen16", func(f func()) { f() }}, {"SqDistScreen16 (Go twin)", simd.GoOnly}} {
		var got [16]float32
		for r := range got {
			got[r] = nan32
		}
		path.run(func() { simd.SqDistScreen16(&got, q, rows) })
		requireSame32(t, path.name+" "+what, got[:], want[:])
	}
}

// TestSqDistScreen16MatchesTwin covers every length from 1 to 67 — on
// both sides of each 16-lane block — and 128 and 385, over three kinds of
// rows: awkward values (±0, subnormals, ±Inf), ordinary ones, and tiny
// ones whose squares are subnormal or underflow to zero. Every other
// round repeats the pointer of a random row n−1 in rows n to 15, as a
// padded last block of the ratio test does.
func TestSqDistScreen16MatchesTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dims := []int{128, 385}
	for dim := 1; dim <= 67; dim++ {
		dims = append(dims, dim)
	}
	kinds := []func() float32{
		func() float32 { return awkward(rng) },
		func() float32 { return float32(rng.NormFloat64()) },
		func() float32 { return float32(rng.NormFloat64() * 0x1p-70) },
	}
	for _, dim := range dims {
		for round := 0; round < 6; round++ {
			draw := kinds[round%3]
			shift := 1 + (dim+round)%7
			row := func(shift int) []float32 {
				s := make([]float32, dim+shift)[shift:]
				for i := range s {
					s[i] = draw()
				}
				return s
			}
			q := row(shift)
			var rows [16]*float32
			for r := range rows {
				rows[r] = unsafe.SliceData(row((shift + r) % 8))
			}
			if round%2 == 1 {
				n := 1 + rng.Intn(16)
				for r := n; r < 16; r++ {
					rows[r] = rows[n-1]
				}
			}
			checkScreen16(t, fmt.Sprintf("dim=%d round=%d", dim, round), q, &rows)
		}
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
// a time, with the one-row loops as the references.
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
		}
	}
}

// refHighHalf is DotHighHalf for one row by its definition: every
// dimension's rounded product goes to lane d mod 32 while whole blocks of
// 32 last, then the fold, then the rest in order.
func refHighHalf(q []float32, row []uint16) float32 {
	var lane [32]float32
	blocks := len(q) / 32 * 32
	for d := 0; d < blocks; d++ {
		lane[d%32] += q[d] * math.Float32frombits(uint32(row[d])<<16)
	}
	var s [8]float32
	for l := range s {
		s[l] = (lane[l] + lane[l+8]) + (lane[l+16] + lane[l+24])
	}
	sum := ((s[0] + s[4]) + (s[2] + s[6])) + ((s[1] + s[5]) + (s[3] + s[7]))
	for d := blocks; d < len(q); d++ {
		sum += q[d] * math.Float32frombits(uint32(row[d])<<16)
	}
	return sum
}

// checkHighHalf runs DotHighHalf on both paths into NaN-filled results
// and requires both to equal refHighHalf row by row, each row found by
// dividing its index by the chunk size.
func checkHighHalf(t *testing.T, what string, q []float32, chunks [][]uint16, shift uint, stride int, rows []int32) {
	t.Helper()
	want := make([]float32, len(rows))
	per := 1 << shift
	for i, r := range rows {
		want[i] = refHighHalf(q, chunks[int(r)/per][int(r)%per*stride:][:len(q)])
	}
	got := nans(len(rows), 0)
	simd.DotHighHalf(got, q, chunks, shift, stride, rows)
	requireSame32(t, "DotHighHalf "+what, got, want)
	got = nans(len(rows), 0)
	simd.GoOnly(func() { simd.DotHighHalf(got, q, chunks, shift, stride, rows) })
	requireSame32(t, "DotHighHalf (Go twin) "+what, got, want)
}

// newChunks lays out stored rows of the given stride 1<<shift to a chunk,
// as an lsh arena holds them: every chunk an allocation of its own, a
// full one (1<<shift)·stride halves long, the last one ending with its
// last row's dim halves. next gives the halves in order.
func newChunks(stored int, shift uint, stride, dim int, next func() uint16) [][]uint16 {
	per := 1 << shift
	var chunks [][]uint16
	for first := 0; first < stored; first += per {
		n := per * stride
		if first+per >= stored {
			n = (stored-1-first)*stride + dim
		}
		c := make([]uint16, n)
		for i := range c {
			c[i] = next()
		}
		chunks = append(chunks, c)
	}
	return chunks
}

// awkwardHalves draws high halves of awkward floats: signed zeros,
// denormals and infinities among ordinary values.
func awkwardHalves(rng *rand.Rand) func() uint16 {
	return func() uint16 { return uint16(math.Float32bits(awkward(rng)) >> 16) }
}

// TestDotHighHalfMatchesTwin covers lengths on both sides of every block
// boundary, row lists that repeat and skip rows, and a stride wider than
// a row, as the split rows of lsh give it (high halves first, then low),
// over chunks of 1 to 32 rows: neighbours in the list, and the row four
// places ahead that the kernel prefetches, often lie in another chunk.
func TestDotHighHalfMatchesTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, dim := range []int{1, 7, 8, 31, 32, 33, 63, 64, 65, 96, 384, 385} {
		for round := 0; round < 10; round++ {
			const stored = 40
			stride := 2 * dim
			shift := []uint{0, 1, 2, 3, 5}[round%5]
			chunks := newChunks(stored, shift, stride, dim, awkwardHalves(rng))
			rows := make([]int32, 1+rng.Intn(3*stored))
			for i := range rows {
				rows[i] = int32(rng.Intn(stored))
			}
			q := unaligned(rng, dim, 1+round%7)
			checkHighHalf(t, fmt.Sprintf("dim=%d round=%d shift=%d", dim, round, shift), q, chunks, shift, stride, rows)
		}
	}
}

// TestBlurMatchesTwin drives the convolution the way the pyramid does —
// through imgproc, on a clip frame — on both paths.
func TestBlurMatchesTwin(t *testing.T) {
	frame := trace.NewGenerator(trace.Config{W: 320, H: 180, Seed: 7}).GrayFrame(0)
	blur := func(sigma float64) *imgproc.Gray {
		dst := imgproc.NewGray(frame.W, frame.H)
		imgproc.BlurInto(dst, imgproc.NewGray(frame.W, frame.H), frame, imgproc.GaussianKernel(sigma), 1)
		return dst
	}
	for _, sigma := range []float64{0.8, 1.6, 3.1} {
		got := blur(sigma)
		var want *imgproc.Gray
		simd.GoOnly(func() { want = blur(sigma) })
		requireSame32(t, fmt.Sprintf("blur sigma %.1f", sigma), got.Pix, want.Pix)
	}
}

// refGrad is Grad by its definition, straight onto the standard library.
func refGrad(up, cur, down []float32) (mag, theta []float64) {
	mag, theta = make([]float64, len(up)), make([]float64, len(up))
	for j := range up {
		gx := float64(cur[j+2] - cur[j])
		gy := float64(down[j] - up[j])
		mag[j], theta[j] = math.Hypot(gx, gy), math.Atan2(gy, gx)
	}
	return mag, theta
}

func nans64(n, shift int) []float64 {
	s := make([]float64, n+shift)[shift:]
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}

// checkGrad runs Grad on both paths into NaN-filled outputs and requires
// each to equal math.Hypot and math.Atan2 bit for bit.
func checkGrad(t *testing.T, what string, up, cur, down []float32, shift int) {
	t.Helper()
	wantMag, wantTheta := refGrad(up, cur, down)
	for _, path := range []struct {
		name string
		run  func(f func())
	}{{"", func(f func()) { f() }}, {" (Go twin)", simd.GoOnly}} {
		mag, theta := nans64(len(up), shift), nans64(len(up), shift+1)
		path.run(func() { simd.Grad(mag, theta, up, cur, down) })
		requireSame64(t, what+path.name+" mag", mag, wantMag)
		requireSame64(t, what+path.name+" theta", theta, wantTheta)
	}
}

// sparse is awkward with the specials one draw in rarity, and NaN and
// values near the float32 limit (whose differences overflow to ±Inf) among
// them; ordinary draws span magnitudes from 2^-60 to 2^60.
func sparse(rng *rand.Rand, rarity int) float32 {
	switch rng.Intn(rarity) {
	case 0:
		return nan32
	case 1:
		return float32(1-2*rng.Intn(2)) * math.MaxFloat32 * (1 - rng.Float32()/4)
	case 2:
		return awkward(rng)
	}
	return float32(rng.NormFloat64() * math.Ldexp(1, rng.Intn(121)-60))
}

// gradPairs lays (gx, gy) pairs out as Grad operands: up is zero, down is
// gy, and cur is zero at pixels j ≡ 0, 1 (mod 4) and gx[j-2] at the other
// two, so pixels j ≡ 0, 1 see (gx[j], gy[j]) and pixels j ≡ 2, 3 see
// (0 − gx[j-2], gy[j]).
func gradPairs(gx, gy []float32, shift int) (up, cur, down []float32) {
	n := len(gx)
	up, cur, down = make([]float32, n+shift)[shift:], make([]float32, n+2+shift)[shift:], make([]float32, n+shift)[shift:]
	copy(down, gy)
	for j := range gx {
		if j%4 < 2 {
			cur[j+2] = gx[j]
		}
	}
	return up, cur, down
}

func TestGradMatchesTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	widths := []int{320}
	for w := 0; w <= 67; w++ {
		widths = append(widths, w)
	}
	for _, w := range widths {
		for _, rarity := range []int{4, 40, 4000} {
			shift := 1 + (w+rarity)%7
			up, down := make([]float32, w+shift)[shift:], make([]float32, w+shift)[shift:]
			cur := make([]float32, w+2+shift)[shift:]
			for _, s := range [][]float32{up, cur, down} {
				for i := range s {
					s[i] = sparse(rng, rarity)
				}
			}
			checkGrad(t, fmt.Sprintf("w=%d rarity=%d", w, rarity), up, cur, down, shift)
		}
	}
}

// TestGradBranches puts gradients where atan2, satan and archHypot branch:
// |gy/gx| on both sides of 0.66 and of tan(3π/8) (and on 0.66 exactly:
// 66/100 rounds to the constant), gx or gy zero with either sign, both
// zero, subnormal and infinite components, in every quadrant.
func TestGradBranches(t *testing.T) {
	ulps := func(f float32, k int) float32 {
		for ; k > 0; k-- {
			f = math.Nextafter32(f, float32(math.Inf(1)))
		}
		for ; k < 0; k++ {
			f = math.Nextafter32(f, float32(math.Inf(-1)))
		}
		return f
	}
	negZero := float32(math.Copysign(0, -1))
	sub := math.Float32frombits(3)
	inf := float32(math.Inf(1))
	var gx, gy []float32
	pair := func(x, y float32) {
		for _, sx := range []float32{1, -1} {
			for _, sy := range []float32{1, -1} {
				gx, gy = append(gx, sx*x), append(gy, sy*y)
			}
		}
	}
	for k := -3; k <= 3; k++ {
		pair(100, ulps(66, k))
		pair(1, ulps(0.66, k))
		pair(1, ulps(float32(2.41421356237309504880), k))
		pair(ulps(0.41421356, k), 1)
		pair(3, ulps(3*2.41421356, k))
		pair(ulps(1, k), 1) // t near 1: (t−1)/(t+1) near zero
	}
	for _, v := range []float32{1, 0.25, 3e38, sub, 7 * sub, inf, nan32} {
		pair(0, v)
		pair(negZero, v)
		pair(v, 0)
		pair(v, negZero)
	}
	pair(0, 0)
	pair(negZero, negZero)
	pair(sub, 1)
	pair(1, sub)
	pair(sub, 2*sub)
	pair(3e38, sub)
	pair(inf, inf)
	pair(inf, 1)
	pair(1, inf)
	pair(nan32, 1)
	// Groups of four sharing one special, and the same pairs shifted by
	// every offset so each lands in each lane.
	for shift := 0; shift < 4; shift++ {
		up, cur, down := gradPairs(gx[shift:], gy[shift:], shift+1)
		checkGrad(t, fmt.Sprintf("branch pairs from %d", shift), up, cur, down, shift+1)
	}
	// Random pairs around the two range limits, both quadrant signs.
	rng := rand.New(rand.NewSource(8))
	gx, gy = gx[:0], gy[:0]
	for i := 0; i < 1<<14; i++ {
		x := float32(rng.NormFloat64() * math.Ldexp(1, rng.Intn(41)-20))
		r := [...]float64{0.66, 2.41421356237309504880, 1}[i%3] * (1 + (rng.Float64()-0.5)*1e-6)
		gx, gy = append(gx, x), append(gy, float32(float64(x)*r)*float32(1-2*rng.Intn(2)))
	}
	up, cur, down := gradPairs(gx, gy, 3)
	checkGrad(t, "random pairs near the range limits", up, cur, down, 3)
}

// refExtrema is Extrema by its definition, one pixel at a time.
func refExtrema(below, cur, above []float32, w, pixels int, threshold float64) []uint8 {
	mask := make([]uint8, pixels/8)
	for p := 0; p < pixels; p++ {
		c := w + 1 + p
		v := cur[c]
		if math.Abs(float64(v)) < threshold {
			continue
		}
		ge, le := 0, 0 // neighbours with n >= v, with n <= v
		for l, img := range [][]float32{below, cur, above} {
			for _, off := range []int{-w - 1, -w, -w + 1, -1, 0, 1, w - 1, w, w + 1} {
				if l == 1 && off == 0 {
					continue
				}
				if img[c+off] >= v {
					ge++
				}
				if img[c+off] <= v {
					le++
				}
			}
		}
		if ge == 0 || le == 0 {
			mask[p/8] |= 1 << (p % 8)
		}
	}
	return mask
}

// checkExtrema runs Extrema on both paths into dirty masks and requires
// each to equal the reference.
func checkExtrema(t *testing.T, what string, below, cur, above []float32, w, groups int, threshold float64) {
	t.Helper()
	want := refExtrema(below, cur, above, w, 8*groups, threshold)
	for _, path := range []struct {
		name string
		run  func(f func())
	}{{"", func(f func()) { f() }}, {" (Go twin)", simd.GoOnly}} {
		got := make([]uint8, groups)
		for i := range got {
			got[i] = 0xa5
		}
		path.run(func() { simd.Extrema(got, below, cur, above, w, threshold) })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s%s: mask[%d] = %08b, want %08b", what, path.name, i, got[i], want[i])
			}
		}
	}
}

// dogWindows returns three windows of stride w for groups·8 pixels, drawn
// from a few levels so plateaus and ties with the centre are common, with
// planted strict extrema, ties planted beside some of them, and NaN
// centres and neighbours one draw in nanRarity.
func dogWindows(rng *rand.Rand, w, groups, nanRarity, shift int) (below, cur, above []float32) {
	n := 2*w + 8*groups + 2
	levels := [...]float32{-1, -0.5, 0, float32(math.Copysign(0, -1)), 0.5, 1, 0.03}
	win := func() []float32 {
		s := make([]float32, n+shift)[shift:]
		for i := range s {
			s[i] = levels[rng.Intn(len(levels))] * float32(1+rng.Intn(2))
			if rng.Intn(nanRarity) == 0 {
				s[i] = nan32
			}
		}
		return s
	}
	below, cur, above = win(), win(), win()
	for p := 0; p < 8*groups; p++ {
		if rng.Intn(3) != 0 {
			continue
		}
		c := w + 1 + p
		cur[c] = float32(3 * (1 - 2*rng.Intn(2)))
		if l, off := rng.Intn(3), (rng.Intn(3)-1)*w+rng.Intn(3)-1; rng.Intn(3) == 0 && (l != 1 || off != 0) {
			[][]float32{below, cur, above}[l][c+off] = cur[c] // a tie with the centre
		}
	}
	return below, cur, above
}

func TestExtremaMatchesTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, groups := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 40} {
		for _, extra := range []int{0, 1, 5, 13} {
			w := 8*groups + 2 + extra
			for _, nanRarity := range []int{8, 1000} {
				shift := 1 + (groups+extra)%7
				below, cur, above := dogWindows(rng, w, groups, nanRarity, shift)
				for _, thr := range []float64{0, 0.03, 0.5, 1, 2.5, 3, 4, math.Inf(1), math.NaN()} {
					checkExtrema(t, fmt.Sprintf("groups=%d w=%d nan 1/%d threshold %g", groups, w, nanRarity, thr),
						below, cur, above, w, groups, thr)
				}
			}
		}
	}
}

// TestExtremaContrastAtFloat32Boundary: the vector path compares |v| with
// the least float32 not below the threshold; that must decide exactly as
// math.Abs(float64(v)) < threshold does, for thresholds on, just above and
// just below a float32, and centres on and either side of it.
func TestExtremaContrastAtFloat32Boundary(t *testing.T) {
	const groups = 3
	w := 8*groups + 2
	for _, f := range []float32{0.03, 1, math.SmallestNonzeroFloat32, math.MaxFloat32} {
		f64 := float64(f)
		next := float64(math.Nextafter32(f, float32(math.Inf(1))))
		thresholds := []float64{
			f64, math.Nextafter(f64, math.Inf(1)), math.Nextafter(f64, math.Inf(-1)),
			(f64 + next) / 2, math.Nextafter(next, math.Inf(-1)), next,
		}
		centres := []float32{f, math.Nextafter32(f, 0), math.Nextafter32(f, float32(math.Inf(1)))}
		for _, thr := range thresholds {
			below, cur, above := make([]float32, 2*w+8*groups+2), make([]float32, 2*w+8*groups+2), make([]float32, 2*w+8*groups+2)
			// Isolated centres over zero neighbours: every one is a strict
			// extremum, so the contrast test alone decides.
			for p := 0; p < 8*groups; p += 2 {
				c := centres[(p/2)%len(centres)]
				if p%4 == 2 {
					c = -c
				}
				cur[w+1+p] = c
			}
			want := refExtrema(below, cur, above, w, 8*groups, thr)
			for p := 0; p < 8*groups; p += 2 {
				if v := cur[w+1+p]; v != 0 {
					if got := want[p/8]>>(p%8)&1 == 1; got != !(math.Abs(float64(v)) < thr) {
						t.Fatalf("reference: centre %g, threshold %v: %v", v, thr, got)
					}
				}
			}
			checkExtrema(t, fmt.Sprintf("float32 %g, threshold %v", f, thr), below, cur, above, w, groups, thr)
		}
	}
}

// descRow is one row of DescRow operands.
type descRow struct {
	mag, theta, weight, colCos, colSin    []float64
	rowSin, rowCos, binWidth, orientation float64
}

func (r *descRow) add(grid *simd.DescGrid) {
	simd.DescRow(grid, r.mag, r.theta, r.weight, r.colCos, r.colSin, r.rowSin, r.rowCos, r.binWidth, r.orientation)
}

// patchRow is row dy of a descriptor window of the given radius around a
// keypoint at orientation ori, as computeDescriptor hands it over, with
// every fifth magnitude zero; the slices start shift elements into their
// allocations.
func patchRow(rng *rand.Rand, radius, dy int, sigma, ori float64, shift int) *descRow {
	n := 2*radius + 1
	f := func() []float64 { return make([]float64, n+shift)[shift:] }
	r := &descRow{mag: f(), theta: f(), weight: f(), colCos: f(), colSin: f(), binWidth: 3 * sigma, orientation: ori}
	cosT, sinT := math.Cos(-ori), math.Sin(-ori)
	r.rowSin, r.rowCos = sinT*float64(dy), cosT*float64(dy)
	for i := range r.mag {
		dx := i - radius
		r.colCos[i], r.colSin[i] = cosT*float64(dx), sinT*float64(dx)
		if rng.Intn(5) != 0 {
			r.mag[i] = rng.ExpFloat64()
		}
		r.theta[i] = (2*rng.Float64() - 1) * math.Pi
		r.weight[i] = math.Exp(-float64(dx*dx+dy*dy) / (2 * 36 * sigma * sigma))
	}
	return r
}

// dirtyGrid is a grid that already holds sums: non-negative and negative
// values and +0, never −0.
func dirtyGrid(rng *rand.Rand) *simd.DescGrid {
	var g simd.DescGrid
	for i := range g {
		if rng.Intn(4) != 0 {
			g[i] = float32(rng.NormFloat64())
		}
	}
	return &g
}

// checkDescRow adds the rows to copies of one dirty grid on both paths and
// requires the same bits.
func checkDescRow(t *testing.T, what string, start *simd.DescGrid, rows ...*descRow) {
	t.Helper()
	want, got := *start, *start
	simd.GoOnly(func() {
		for _, r := range rows {
			r.add(&want)
		}
	})
	for _, r := range rows {
		r.add(&got)
	}
	requireSame32(t, what, got[:], want[:])
}

var descOrientations = []float64{0, math.Pi, -math.Pi, math.Pi / 2, -math.Pi / 2, 1e-9, -3, 0.7}

func TestDescRowMatchesTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for radius := 0; radius <= 33; radius++ {
		for _, ori := range descOrientations {
			sigma := 0.5 + rng.Float64()*3
			start := dirtyGrid(rng)
			// A whole window, row after row, into one grid.
			var rows []*descRow
			for dy := -radius; dy <= radius; dy++ {
				rows = append(rows, patchRow(rng, radius, dy, sigma, ori, 1+(radius+dy+33)%7))
			}
			checkDescRow(t, fmt.Sprintf("radius %d orientation %v", radius, ori), start, rows...)
		}
	}
}

// TestDescRowBranches puts pixels where descRowGo branches or rounds at
// a boundary: bin coordinates on and one ulp either side of -1, 0, 3 and 4,
// angles that land rel on 0, −0, just below 0, on 2·Pi and just below it,
// orientations ±Pi, zero magnitudes of either sign inside the window, and
// the groups the kernel hands to the twin — non-finite magnitudes and
// angles, infinite offsets, angles that wrap more than once — each shifted
// through every lane.
func TestDescRowBranches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type pixel struct{ mag, theta, colCos, colSin float64 }
	var edges []float64 // colCos or colSin giving these bin coordinates at binWidth 1, dy 0
	for _, b := range []float64{-1, 0, 3, 4, 1.5, -0.5, 3.5} {
		c := b - 1.5
		edges = append(edges, c, math.Nextafter(c, math.Inf(1)), math.Nextafter(c, math.Inf(-1)))
	}
	for _, ori := range descOrientations {
		thetas := []float64{ori, math.Copysign(0, -1), 0, math.Pi, -math.Pi,
			math.Nextafter(ori, math.Inf(1)), math.Nextafter(ori, math.Inf(-1)), ori - 1e-300, ori + 1e-17}
		var ps []pixel
		for _, cx := range edges {
			for _, cy := range edges {
				ps = append(ps, pixel{rng.ExpFloat64(), thetas[rng.Intn(len(thetas))], cx, cy})
			}
		}
		for _, th := range thetas {
			ps = append(ps, pixel{1, th, 0.25, -0.75})
		}
		nan, inf := math.NaN(), math.Inf(1)
		ps = append(ps,
			pixel{0, 1, 0, 0}, pixel{math.Copysign(0, -1), 1, 0, 0},
			pixel{nan, 1, 0, 0}, pixel{inf, 1, 0, 0}, pixel{-inf, 1, 0.5, 0.5},
			pixel{1, nan, 0, 0}, pixel{0, inf, 0, 0}, pixel{0, -inf, 0, 0},
			pixel{1, 0, inf, 0}, pixel{1, 0, 0, -inf},
			pixel{1, ori + 20, 0, 0}, pixel{1, ori - 20, 1, 1}, pixel{2, ori + 4*math.Pi, -1, 0},
			pixel{1e-310, 0.3, 0, 0}, pixel{-2, 0.3, 0, 0})
		for shift := 0; shift < 4; shift++ {
			n := len(ps) - shift
			row := &descRow{mag: make([]float64, n), theta: make([]float64, n), weight: make([]float64, n),
				colCos: make([]float64, n), colSin: make([]float64, n), binWidth: 1, orientation: ori}
			for i, p := range ps[shift:] {
				row.mag[i], row.theta[i], row.colCos[i], row.colSin[i] = p.mag, p.theta, p.colCos, p.colSin
				row.weight[i] = 0.25 + rng.Float64()
			}
			checkDescRow(t, fmt.Sprintf("orientation %v from %d", ori, shift), dirtyGrid(rng), row)
		}
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
	f64 := func(n int) []float64 { return make([]float64, n) }
	halves := func(lens ...int) [][]uint16 {
		chunks := make([][]uint16, len(lens))
		for c, n := range lens {
			chunks[c] = make([]uint16, n)
		}
		return chunks
	}
	var out [16]float64
	var out32 [16]float32
	var grid simd.DescGrid
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
		{"SqDistScreen16: first row nil", func() { simd.SqDistScreen16(&out32, f(8), missing(0)) }},
		{"SqDistScreen16: last row nil", func() { simd.SqDistScreen16(&out32, f(8), missing(15)) }},
		{"Dot16: first row nil", func() { simd.Dot16(&out, f(8), missing(0)) }},
		{"Dot16: last row nil", func() { simd.Dot16(&out, f(8), missing(15)) }},
		{"Grad: theta one short", func() { simd.Grad(f64(9), f64(8), f(9), f(11), f(9)) }},
		{"Grad: up one short", func() { simd.Grad(f64(9), f64(9), f(8), f(11), f(9)) }},
		{"Grad: down one long", func() { simd.Grad(f64(9), f64(9), f(9), f(11), f(10)) }},
		{"Grad: cur one short", func() { simd.Grad(f64(9), f64(9), f(9), f(10), f(9)) }},
		{"Grad: cur one long", func() { simd.Grad(f64(9), f64(9), f(9), f(12), f(9)) }},
		{"Grad: cur empty for no pixels", func() { simd.Grad(nil, nil, nil, nil, nil) }},
		{"Extrema: below one short", func() { simd.Extrema(make([]uint8, 2), f(2*18+17), f(2*18+18), f(2*18+18), 18, 0.03) }},
		{"Extrema: cur one long", func() { simd.Extrema(make([]uint8, 2), f(2*18+18), f(2*18+19), f(2*18+18), 18, 0.03) }},
		{"Extrema: above one short", func() { simd.Extrema(make([]uint8, 2), f(2*18+18), f(2*18+18), f(2*18+17), 18, 0.03) }},
		{"Extrema: stride one narrower than the pixels", func() { simd.Extrema(make([]uint8, 2), f(2*17+18), f(2*17+18), f(2*17+18), 17, 0.03) }},
		{"Extrema: negative stride", func() { simd.Extrema(nil, f(0), f(0), f(0), -1, 0.03) }},
		{"DescRow: theta one short", func() { simd.DescRow(&grid, f64(9), f64(8), f64(9), f64(9), f64(9), 0, 0, 1, 0) }},
		{"DescRow: weight one long", func() { simd.DescRow(&grid, f64(9), f64(9), f64(10), f64(9), f64(9), 0, 0, 1, 0) }},
		{"DescRow: colCos one short", func() { simd.DescRow(&grid, f64(9), f64(9), f64(9), f64(8), f64(9), 0, 0, 1, 0) }},
		{"DescRow: colSin one long", func() { simd.DescRow(&grid, f64(9), f64(9), f64(9), f64(9), f64(10), 0, 0, 1, 0) }},
		{"DescRow: mag empty", func() { simd.DescRow(&grid, nil, f64(1), f64(1), f64(1), f64(1), 0, 0, 1, 0) }},
		{"DotHighHalf: one result short", func() { simd.DotHighHalf(f(1), f(8), halves(24), 2, 8, []int32{0, 2}) }},
		{"DotHighHalf: last row one past the end", func() { simd.DotHighHalf(f(2), f(8), halves(23), 2, 8, []int32{0, 2}) }},
		{"DotHighHalf: negative row", func() { simd.DotHighHalf(f(2), f(8), halves(24), 2, 8, []int32{-1, 2}) }},
		{"DotHighHalf: negative stride", func() { simd.DotHighHalf(f(1), f(8), halves(24), 2, -8, []int32{0}) }},
		{"DotHighHalf: row longer than the halves", func() { simd.DotHighHalf(f(1), f(8), halves(7), 0, 0, []int32{0}) }},
		{"DotHighHalf: row past the last chunk", func() { simd.DotHighHalf(f(2), f(8), halves(16, 16), 1, 8, []int32{0, 4}) }},
		{"DotHighHalf: chunk below the last row one short", func() { simd.DotHighHalf(f(2), f(8), halves(15, 8), 1, 8, []int32{0, 2}) }},
		{"DotHighHalf: middle chunk one short", func() { simd.DotHighHalf(f(2), f(8), halves(16, 15, 8), 1, 8, []int32{1, 4}) }},
		{"DotHighHalf: chunk shift of 32", func() { simd.DotHighHalf(f(1), f(8), halves(8), 32, 8, []int32{0}) }},
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
	simd.SqDistScreen16(&out32, nil, &full)
	simd.Dot16(&out, nil, &full)
	simd.Grad(f64(9), f64(9), f(9), f(11), f(9))
	simd.Grad(nil, nil, nil, f(2), nil)
	simd.Extrema(make([]uint8, 2), f(2*18+18), f(2*18+18), f(2*18+18), 18, 0.03)
	simd.Extrema(nil, f(6), f(6), f(6), 2, 0.03)
	simd.DescRow(&grid, f64(9), f64(9), f64(9), f64(9), f64(9), 0, 0, 1, 0)
	simd.DescRow(&grid, nil, nil, nil, nil, nil, 0, 0, 1, 0)
	simd.DotHighHalf(f(2), f(8), halves(24), 2, 8, []int32{0, 2})
	simd.DotHighHalf(f(2), f(8), halves(16, 8), 1, 8, []int32{0, 2})
	simd.DotHighHalf(f(2), f(8), halves(15, 8), 1, 8, []int32{2, 2}) // chunk 0 is never read
	simd.DotHighHalf(f(2), f(8), halves(8), 0, 0, []int32{0, 0})
	simd.DotHighHalf(f(1), f(8), halves(8), 31, 8, []int32{0})
	simd.DotHighHalf(nil, f(8), nil, 0, 8, nil)
	simd.DotHighHalf(f(1), nil, halves(0), 3, 8, []int32{0})
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
	var out32 [16]float32
	mag, theta := make([]float64, 67), make([]float64, 67)
	const groups, w = 8, 8*8 + 2
	win := unaligned(rng, 2*w+8*groups+2, 0)
	row := patchRow(rng, 27, 5, 3.2, 0.7, 0)
	var grid simd.DescGrid
	hhChunks, hhRows, hhOut := newChunks(8, 1, 130, 130, awkwardHalves(rng)), []int32{3, 0, 7, 7}, make([]float32, 4)
	calls := func() {
		row.add(&grid)
		simd.DotHighHalf(hhOut, q, hhChunks, 1, 130, hhRows)
		simd.Conv(dst, src, offs, k)
		simd.Sub(dst, src[:67], src[12:])
		simd.SqDist16(&out, q, &rows)
		simd.SqDistScreen16(&out32, q, &rows)
		simd.Dot16(&out, q, &rows)
		simd.Grad(mag, theta, src[:67], src[1:70], src[12:79])
		var mask [groups]uint8
		simd.Extrema(mask[:], win, win, win, w, 0.03)
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
// (a 320-pixel row under 13 taps, 128-dimensional descriptors, a 45-pixel
// gradient-patch row, the extrema scan over a 320-pixel DoG row, a
// 55-pixel descriptor row, a thousand-row screen), vector path against Go
// twin.
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
	var out32 [16]float32
	const patch = 45
	mag, theta := make([]float64, patch), make([]float64, patch)
	// A DoG-like row: small values, about one pixel in twenty past the
	// contrast threshold, as on a clip frame.
	const w, groups = 320, (320 - 2) / 8
	dog := func() []float32 {
		s := make([]float32, 2*w+8*groups+2)
		for i := range s {
			s[i] = float32(rng.NormFloat64() * 0.016)
		}
		return s
	}
	below, cur, above := dog(), dog(), dog()
	var mask [groups]uint8
	// Row 5 of the widest descriptor window (sigma 3.2, radius 27).
	row := patchRow(rng, 27, 5, 3.2, 0.7, 0)
	var grid simd.DescGrid
	// The lsh screen: 384-dimensional split rows (768 halves each) in
	// chunks of 1 024, every third of 3000 listed — the spacing of a
	// bigdb-100k query's candidates, over 4.6 MB, so the rows come from
	// memory as they do there.
	const hhDim = 384
	halves := newChunks(3000, 10, 2*hhDim, 2*hhDim, func() uint16 { return uint16(math.Float32bits(rng.Float32()) >> 16) })
	hhQ := ordinary(hhDim)
	hhRows := make([]int32, 1000)
	for i := range hhRows {
		hhRows[i] = int32(3 * i)
	}
	hhOut := make([]float32, len(hhRows))
	kernels := []struct {
		name string
		call func()
	}{
		{"Conv", func() { simd.Conv(dst, src, offs, k) }},
		{"Sub", func() { simd.Sub(dst, src[:320], src[12:]) }},
		{"SqDist16", func() { simd.SqDist16(&out, q, &rows) }},
		{"SqDistScreen16", func() { simd.SqDistScreen16(&out32, q, &rows) }},
		{"Dot16", func() { simd.Dot16(&out, q, &rows) }},
		{"Grad", func() { simd.Grad(mag, theta, src[:patch], src[1:patch+3], src[12:patch+12]) }},
		{"Extrema", func() { simd.Extrema(mask[:], below, cur, above, w, 0.03) }},
		{"DescRow", func() { row.add(&grid) }},
		{"DotHighHalf", func() { simd.DotHighHalf(hhOut, hhQ, halves, 10, 2*hhDim, hhRows) }},
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

// TestDescRowHugeAngles: an infinite or huge finite angle returns at once
// on both paths. An infinite one adds what a NaN angle adds, and 1e300
// adds what its exact remainder modulo 2π adds.
func TestDescRowHugeAngles(t *testing.T) {
	row := func(theta ...float64) *descRow {
		n := len(theta)
		r := &descRow{mag: make([]float64, n), theta: theta, weight: make([]float64, n),
			colCos: make([]float64, n), colSin: make([]float64, n), binWidth: 1}
		for i := range r.mag {
			r.mag[i], r.weight[i], r.colCos[i], r.colSin[i] = 1+float64(i), 1, 0.25*float64(i%3), -0.5
		}
		return r
	}
	inf := math.Inf(1)
	cases := []struct{ theta, same float64 }{
		{inf, math.NaN()}, {-inf, math.NaN()}, {1e300, math.Mod(1e300, 2*math.Pi)}, {-1e300, math.Mod(-1e300, 2*math.Pi)},
	}
	got, want := make([]simd.DescGrid, len(cases)), make([]simd.DescGrid, len(cases))
	done := make(chan struct{})
	go func() {
		defer close(done)
		simd.GoOnly(func() {
			for i, tc := range cases {
				row(tc.theta).add(&got[i])
				row(tc.same).add(&want[i])
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("descRowGo still wrapping a huge angle after 10 s")
	}
	for i, tc := range cases {
		requireSame32(t, fmt.Sprintf("angle %v", tc.theta), got[i][:], want[i][:])
	}
	checkDescRow(t, "mixed huge angles", new(simd.DescGrid), row(inf, 1e300, -inf, 0.5, -1e300))
}
