package fisher

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// twoClusters generates points around two well-separated centers.
func twoClusters(rng *rand.Rand, n, dim int) [][]float32 {
	data := make([][]float32, n)
	for i := range data {
		row := make([]float32, dim)
		center := float64(-3)
		if i%2 == 1 {
			center = 3
		}
		for j := range row {
			row[j] = float32(center + rng.NormFloat64()*0.5)
		}
		data[i] = row
	}
	return data
}

func TestTrainGMMErrors(t *testing.T) {
	if _, err := TrainGMM(nil, 2, 5, 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("TrainGMM(nil) err = %v", err)
	}
	if _, err := TrainGMM([][]float32{{1}}, 2, 5, 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("TrainGMM(k>n) err = %v", err)
	}
	if _, err := TrainGMM([][]float32{{1}, {2, 3}}, 1, 5, 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("TrainGMM(ragged) err = %v", err)
	}
	if _, err := TrainGMM([][]float32{{}, {}}, 1, 5, 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("TrainGMM(zero-dim) err = %v", err)
	}
}

func TestGMMRecoverClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := twoClusters(rng, 400, 3)
	g, err := TrainGMM(data, 2, 30, 11)
	if err != nil {
		t.Fatal(err)
	}
	// The two component means must be near -3 and +3 (in some order).
	m0 := g.Means[0][0]
	m1 := g.Means[1][0]
	lo, hi := math.Min(m0, m1), math.Max(m0, m1)
	if math.Abs(lo+3) > 0.5 || math.Abs(hi-3) > 0.5 {
		t.Errorf("recovered means %v and %v, want ~-3 and ~+3", lo, hi)
	}
	// Weights near 0.5 each.
	if math.Abs(g.Weights[0]-0.5) > 0.1 {
		t.Errorf("weight = %v, want ~0.5", g.Weights[0])
	}
}

func TestWeightsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g, err := TrainGMM(twoClusters(rng, 100, 4), 4, 15, 12)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, w := range g.Weights {
		if w < 0 {
			t.Errorf("negative weight %v", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %v, want 1", sum)
	}
}

func TestVariancesFloored(t *testing.T) {
	// Identical points would collapse variance; the floor must hold.
	data := make([][]float32, 20)
	for i := range data {
		data[i] = []float32{1, 2}
	}
	g, err := TrainGMM(data, 2, 10, 13)
	if err != nil {
		t.Fatal(err)
	}
	for c := range g.Vars {
		for j, v := range g.Vars[c] {
			if v < varFloor {
				t.Errorf("component %d var[%d] = %v below floor", c, j, v)
			}
		}
	}
}

func TestEMImprovesLikelihood(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	data := twoClusters(rng, 300, 2)
	g1, err := TrainGMM(data, 2, 1, 14)
	if err != nil {
		t.Fatal(err)
	}
	g20, err := TrainGMM(data, 2, 20, 14)
	if err != nil {
		t.Fatal(err)
	}
	ll1 := g1.LogLikelihood(data)
	ll20 := g20.LogLikelihood(data)
	if ll20 < ll1-1e-6 {
		t.Errorf("more EM iterations decreased likelihood: %v -> %v", ll1, ll20)
	}
}

func TestPosteriorsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	data := twoClusters(rng, 100, 3)
	g, err := TrainGMM(data, 3, 10, 15)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range data[:10] {
		p := g.Posteriors(x)
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("posterior %v outside [0,1]", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("posteriors sum to %v", sum)
		}
	}
}

func TestEncodeSizeAndNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	data := twoClusters(rng, 200, 4)
	g, err := TrainGMM(data, 5, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEncoder(g)
	if e.Size() != 2*5*4 {
		t.Errorf("Size = %d, want 40", e.Size())
	}
	fv := e.Encode(data[:30])
	if len(fv) != e.Size() {
		t.Fatalf("Encode length = %d, want %d", len(fv), e.Size())
	}
	var norm float64
	for _, v := range fv {
		norm += float64(v) * float64(v)
	}
	if math.Abs(math.Sqrt(norm)-1) > 1e-5 {
		t.Errorf("FV norm = %v, want 1", math.Sqrt(norm))
	}
}

func TestEncodeEmptySet(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g, err := TrainGMM(twoClusters(rng, 50, 3), 2, 5, 17)
	if err != nil {
		t.Fatal(err)
	}
	fv := NewEncoder(g).Encode(nil)
	if len(fv) != 2*2*3 {
		t.Fatalf("empty encode length = %d", len(fv))
	}
	for _, v := range fv {
		if v != 0 {
			t.Fatal("empty descriptor set should encode to zero vector")
		}
	}
}

func TestEncodeDiscriminates(t *testing.T) {
	// FVs of descriptor sets drawn from different clusters should be
	// farther apart than FVs of sets from the same cluster.
	rng := rand.New(rand.NewSource(18))
	data := twoClusters(rng, 400, 3)
	g, err := TrainGMM(data, 2, 20, 18)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEncoder(g)
	var clusterA, setB [][]float32
	for i, row := range data {
		switch {
		case i%2 == 0 && len(clusterA) < 50:
			clusterA = append(clusterA, row)
		case i%2 == 1 && len(setB) < 40:
			setB = append(setB, row)
		}
	}
	// Two views of the same scene share most descriptors (as consecutive
	// video frames do); a different object shares none.
	setA1 := clusterA[:40]
	setA2 := clusterA[10:50]
	fvA1 := e.Encode(setA1)
	fvA2 := e.Encode(setA2)
	fvB := e.Encode(setB)
	same := l2(fvA1, fvA2)
	diff := l2(fvA1, fvB)
	if same >= diff {
		t.Errorf("same-cluster FV distance %v >= cross-cluster %v", same, diff)
	}
}

func l2(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i] - b[i])
		s += d * d
	}
	return math.Sqrt(s)
}

func TestNewEncoderPanicsOnNil(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewEncoder(nil) did not panic")
		}
	}()
	NewEncoder(nil)
}

func TestTrainingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	data := twoClusters(rng, 150, 3)
	g1, err := TrainGMM(data, 3, 10, 99)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := TrainGMM(data, 3, 10, 99)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		for j := 0; j < 3; j++ {
			if g1.Means[c][j] != g2.Means[c][j] {
				t.Fatal("same seed produced different models")
			}
		}
	}
}

// Property: Fisher vectors always have norm <= 1 + eps and exactly 1 for
// non-degenerate input.
func TestEncodeNormProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	g, err := TrainGMM(twoClusters(rng, 100, 2), 2, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEncoder(g)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		descs := make([][]float32, n)
		for i := range descs {
			descs[i] = []float32{float32(r.NormFloat64() * 3), float32(r.NormFloat64() * 3)}
		}
		fv := e.Encode(descs)
		var norm float64
		for _, v := range fv {
			norm += float64(v) * float64(v)
		}
		return math.Sqrt(norm) <= 1+1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Parallel kernel contract: Encode is bit-identical for any worker count.
func TestEncodeParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	data := twoClusters(rng, 300, 16)
	g, err := TrainGMM(data, 8, 10, 40)
	if err != nil {
		t.Fatal(err)
	}
	serial := NewEncoder(g)
	serial.Workers = 1
	want := serial.Encode(data[:130])
	for _, workers := range []int{2, 4, 8} {
		e := NewEncoder(g)
		e.Workers = workers
		got := e.Encode(data[:130])
		if len(got) != len(want) {
			t.Fatalf("workers=%d: length %d, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: fv[%d] = %v, serial %v", workers, i, got[i], want[i])
			}
		}
	}
}

// Parallel kernel contract: EM training is bit-identical for any worker
// count (per-chunk accumulators merged in chunk order).
func TestTrainGMMParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	data := twoClusters(rng, 257, 5)
	want, err := trainGMM(data, 4, 12, 41, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := trainGMM(data, 4, 12, 41, workers)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 4; c++ {
			if got.Weights[c] != want.Weights[c] {
				t.Fatalf("workers=%d: weight[%d] = %v, serial %v", workers, c, got.Weights[c], want.Weights[c])
			}
			for j := 0; j < 5; j++ {
				if got.Means[c][j] != want.Means[c][j] || got.Vars[c][j] != want.Vars[c][j] {
					t.Fatalf("workers=%d: component %d dim %d differs from serial", workers, c, j)
				}
			}
		}
	}
}

func BenchmarkEncode64Descs(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	data := twoClusters(rng, 300, 32)
	g, err := TrainGMM(data, 16, 10, 21)
	if err != nil {
		b.Fatal(err)
	}
	e := NewEncoder(g)
	descs := data[:64]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Encode(descs)
	}
}

// BenchmarkEncode512Descs is the per-kernel scaling row at a realistic
// per-frame descriptor count; compare with -cpu 1,4,8.
func BenchmarkEncode512Descs(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	data := twoClusters(rng, 512, 32)
	g, err := TrainGMM(data, 16, 10, 22)
	if err != nil {
		b.Fatal(err)
	}
	e := NewEncoder(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Encode(data)
	}
}

// BenchmarkTrainGMM is the EM-training scaling row; compare with
// -cpu 1,4,8.
func BenchmarkTrainGMM(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	data := twoClusters(rng, 600, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainGMM(data, 16, 5, 23); err != nil {
			b.Fatal(err)
		}
	}
}

// logGaussian returns the log density of x under component c.
func (g *GMM) logGaussian(x []float32, c int) float64 {
	mean, vars := g.Means[c], g.Vars[c]
	acc := 0.0
	for j, v := range x {
		d := float64(v) - mean[j]
		acc += d*d/vars[j] + math.Log(2*math.Pi*vars[j])
	}
	return -0.5 * acc
}

// Posteriors returns the responsibility of each component for x.
func (g *GMM) Posteriors(x []float32) []float64 {
	if len(x) != g.Dim {
		panic(fmt.Sprintf("fisher: posterior dim %d, want %d", len(x), g.Dim))
	}
	logs := newLogTables(g)
	logs.fill(g)
	out := make([]float64, g.K)
	g.posteriorsInto(logs, x, out)
	return out
}

// LogLikelihood returns the mean per-sample log-likelihood of data under
// the model — used to verify that EM iterations improve the fit.
func (g *GMM) LogLikelihood(data [][]float32) float64 {
	if len(data) == 0 {
		return 0
	}
	var total float64
	for _, x := range data {
		maxLog := math.Inf(-1)
		logs := make([]float64, g.K)
		for c := 0; c < g.K; c++ {
			logs[c] = math.Log(g.Weights[c]+1e-300) + g.logGaussian(x, c)
			if logs[c] > maxLog {
				maxLog = logs[c]
			}
		}
		var s float64
		for _, l := range logs {
			s += math.Exp(l - maxLog)
		}
		total += maxLog + math.Log(s)
	}
	return total / float64(len(data))
}
