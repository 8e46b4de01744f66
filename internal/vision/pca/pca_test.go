package pca

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// gaussianCloud generates n samples in d dims where variance is
// concentrated along the first few axes (axis i has stddev 1/(i+1)).
func gaussianCloud(rng *rand.Rand, n, d int) [][]float32 {
	data := make([][]float32, n)
	for i := range data {
		row := make([]float32, d)
		for j := range row {
			row[j] = float32(rng.NormFloat64() / float64(j+1))
		}
		data[i] = row
	}
	return data
}

func TestFitErrors(t *testing.T) {
	_, err := Fit(nil, 2)
	if !errors.Is(err, ErrInsufficientData) {
		t.Errorf("Fit(nil) err = %v, want ErrInsufficientData", err)
	}
	_, err = Fit([][]float32{{1, 2}}, 1)
	if !errors.Is(err, ErrInsufficientData) {
		t.Errorf("Fit(1 sample) err = %v, want ErrInsufficientData", err)
	}
	_, err = Fit([][]float32{{1, 2}, {3, 4}}, 3)
	if !errors.Is(err, ErrInsufficientData) {
		t.Errorf("Fit(k>d) err = %v, want ErrInsufficientData", err)
	}
	_, err = Fit([][]float32{{1, 2}, {3, 4, 5}}, 1)
	if err == nil {
		t.Error("Fit with ragged samples did not error")
	}
}

func TestComponentsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	data := gaussianCloud(rng, 200, 10)
	p, err := Fit(data, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.K; i++ {
		for j := i; j < p.K; j++ {
			var dot float64
			for m := 0; m < p.Dim; m++ {
				dot += p.Components[i][m] * p.Components[j][m]
			}
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(dot-want) > 1e-8 {
				t.Errorf("components %d·%d = %v, want %v", i, j, dot, want)
			}
		}
	}
}

func TestEigenvaluesDescending(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p, err := Fit(gaussianCloud(rng, 300, 8), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(p.Eigenvalues); i++ {
		if p.Eigenvalues[i] > p.Eigenvalues[i-1]+1e-12 {
			t.Errorf("eigenvalues not descending at %d: %v > %v",
				i, p.Eigenvalues[i], p.Eigenvalues[i-1])
		}
		if p.Eigenvalues[i] < 0 {
			t.Errorf("negative eigenvalue %v", p.Eigenvalues[i])
		}
	}
}

func TestRecoversDominantAxis(t *testing.T) {
	// Data varies almost entirely along axis 0: the first principal
	// component must align with e0 (up to sign).
	rng := rand.New(rand.NewSource(2))
	data := make([][]float32, 500)
	for i := range data {
		row := make([]float32, 6)
		row[0] = float32(rng.NormFloat64() * 10)
		for j := 1; j < 6; j++ {
			row[j] = float32(rng.NormFloat64() * 0.01)
		}
		data[i] = row
	}
	p, err := Fit(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := math.Abs(p.Components[0][0]); got < 0.999 {
		t.Errorf("first PC alignment with dominant axis = %v, want ~1", got)
	}
}

func TestReconstructionErrorDecreasesWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := gaussianCloud(rng, 150, 12)
	var prevErr float64 = math.Inf(1)
	for _, k := range []int{1, 3, 6, 12} {
		p, err := Fit(data, k)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, row := range data {
			rec := p.Reconstruct(p.Project(row))
			for j := range row {
				d := float64(row[j] - rec[j])
				total += d * d
			}
		}
		if total > prevErr+1e-6 {
			t.Errorf("reconstruction error increased with k=%d: %v > %v", k, total, prevErr)
		}
		prevErr = total
	}
	// With k = d, reconstruction should be near-perfect.
	if prevErr > 1e-3 {
		t.Errorf("full-rank reconstruction error = %v, want ~0", prevErr)
	}
}

func TestProjectionCentersData(t *testing.T) {
	// The mean of projected training data should be ~0.
	rng := rand.New(rand.NewSource(4))
	data := make([][]float32, 100)
	for i := range data {
		row := make([]float32, 5)
		for j := range row {
			row[j] = float32(5 + rng.NormFloat64())
		}
		data[i] = row
	}
	p, err := Fit(data, 3)
	if err != nil {
		t.Fatal(err)
	}
	proj := p.ProjectAll(data)
	sums := make([]float64, 3)
	for _, row := range proj {
		for j, v := range row {
			sums[j] += float64(v)
		}
	}
	for j, s := range sums {
		if math.Abs(s/float64(len(proj))) > 1e-3 {
			t.Errorf("projected mean along %d = %v, want ~0", j, s/float64(len(proj)))
		}
	}
}

func TestProjectPanicsOnWrongDim(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, err := Fit(gaussianCloud(rng, 50, 4), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Project with wrong dim did not panic")
		}
	}()
	p.Project([]float32{1, 2, 3})
}

func TestExplainedVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data := gaussianCloud(rng, 400, 6)
	pFull, err := Fit(data, 6)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, ev := range pFull.Eigenvalues {
		total += ev
	}
	if frac := pFull.ExplainedVariance(total); math.Abs(frac-1) > 1e-9 {
		t.Errorf("full-rank explained variance = %v, want 1", frac)
	}
	p1, err := Fit(data, 1)
	if err != nil {
		t.Fatal(err)
	}
	frac := p1.ExplainedVariance(total)
	if frac <= 0 || frac >= 1 {
		t.Errorf("k=1 explained variance = %v, want in (0, 1)", frac)
	}
	if pFull.ExplainedVariance(0) != 0 {
		t.Error("ExplainedVariance(0) != 0")
	}
}

func TestJacobiOnKnownMatrix(t *testing.T) {
	// [[2, 1], [1, 2]] has eigenvalues 3 and 1.
	a := [][]float64{{2, 1}, {1, 2}}
	vals, vecs := jacobiEigen(a)
	got := []float64{vals[0], vals[1]}
	if got[0] > got[1] {
		got[0], got[1] = got[1], got[0]
	}
	if math.Abs(got[0]-1) > 1e-10 || math.Abs(got[1]-3) > 1e-10 {
		t.Errorf("eigenvalues = %v, want [1 3]", got)
	}
	// Eigenvector columns must be unit length.
	for c := 0; c < 2; c++ {
		n := vecs[0][c]*vecs[0][c] + vecs[1][c]*vecs[1][c]
		if math.Abs(n-1) > 1e-10 {
			t.Errorf("eigenvector %d norm^2 = %v", c, n)
		}
	}
}

// Property: projection preserves pairwise distances when k = d (orthogonal
// transform after centering).
func TestFullRankIsometryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := gaussianCloud(rng, 30, 5)
		p, err := Fit(data, 5)
		if err != nil {
			return false
		}
		a, b := data[0], data[1]
		pa, pb := p.Project(a), p.Project(b)
		var dOrig, dProj float64
		for i := range a {
			d := float64(a[i] - b[i])
			dOrig += d * d
		}
		for i := range pa {
			d := float64(pa[i] - pb[i])
			dProj += d * d
		}
		return math.Abs(dOrig-dProj) < 1e-3*(1+dOrig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFit128D(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	data := gaussianCloud(rng, 256, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(data, 32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProject128To32(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	data := gaussianCloud(rng, 256, 128)
	p, err := Fit(data, 32)
	if err != nil {
		b.Fatal(err)
	}
	v := data[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Project(v)
	}
}

// Reconstruct maps k-dimensional coefficients back to the input space —
// used by tests to verify reconstruction error decreases with k.
func (p *Projection) Reconstruct(coeffs []float32) []float32 {
	if len(coeffs) != p.K {
		panic(fmt.Sprintf("pca: reconstruct dim %d, want %d", len(coeffs), p.K))
	}
	out := make([]float32, p.Dim)
	for i := 0; i < p.Dim; i++ {
		acc := p.Mean[i]
		for c := range p.Components {
			acc += float64(coeffs[c]) * p.Components[c][i]
		}
		out[i] = float32(acc)
	}
	return out
}

// ExplainedVariance returns the fraction of total variance captured by the
// kept components. Requires the caller to pass the total variance of the
// training data (sum of all eigenvalues, i.e. trace of covariance).
func (p *Projection) ExplainedVariance(totalVariance float64) float64 {
	if totalVariance <= 0 {
		return 0
	}
	var kept float64
	for _, ev := range p.Eigenvalues {
		kept += ev
	}
	frac := kept / totalVariance
	if frac > 1 {
		frac = 1
	}
	return frac
}
