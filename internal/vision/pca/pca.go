// Package pca implements principal component analysis for descriptor
// compression, the first half of scAtteR's encoding service. Descriptors
// (128-d SIFT vectors) are projected onto the top-k eigenvectors of their
// covariance matrix, computed with a cyclic Jacobi eigensolver — no
// external linear-algebra dependency.
package pca

import (
	"errors"
	"fmt"
	"math"
)

// Projection is a fitted PCA model: a mean vector and k orthonormal
// principal components (rows of Components), ordered by decreasing
// eigenvalue.
type Projection struct {
	Dim         int         // input dimensionality
	K           int         // output dimensionality
	Mean        []float64   // length Dim
	Components  [][]float64 // K rows × Dim columns, orthonormal
	Eigenvalues []float64   // length K, descending
}

// ErrInsufficientData is returned by Fit when there are fewer than two
// samples or the requested output dimensionality exceeds the input.
var ErrInsufficientData = errors.New("pca: insufficient data")

// Fit computes a PCA projection from data (n samples × d dims) keeping the
// top k components. All samples must share the same dimensionality.
func Fit(data [][]float32, k int) (*Projection, error) {
	n := len(data)
	if n < 2 {
		return nil, fmt.Errorf("%w: need at least 2 samples, got %d", ErrInsufficientData, n)
	}
	d := len(data[0])
	if d == 0 {
		return nil, fmt.Errorf("%w: zero-dimensional samples", ErrInsufficientData)
	}
	if k <= 0 || k > d {
		return nil, fmt.Errorf("%w: k=%d outside (0, %d]", ErrInsufficientData, k, d)
	}
	for i, row := range data {
		if len(row) != d {
			return nil, fmt.Errorf("pca: sample %d has dim %d, want %d", i, len(row), d)
		}
	}

	mean := make([]float64, d)
	for _, row := range data {
		for j, v := range row {
			mean[j] += float64(v)
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}

	// Covariance matrix (d×d, symmetric).
	cov := make([][]float64, d)
	for i := range cov {
		cov[i] = make([]float64, d)
	}
	for _, row := range data {
		for i := 0; i < d; i++ {
			ci := float64(row[i]) - mean[i]
			if ci == 0 {
				continue
			}
			covi := cov[i]
			for j := i; j < d; j++ {
				covi[j] += ci * (float64(row[j]) - mean[j])
			}
		}
	}
	inv := 1 / float64(n-1)
	for i := 0; i < d; i++ {
		for j := i; j < d; j++ {
			cov[i][j] *= inv
			cov[j][i] = cov[i][j]
		}
	}

	vals, vecs := jacobiEigen(cov)

	// Sort indices by descending eigenvalue.
	idx := make([]int, d)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			if vals[idx[j]] > vals[idx[i]] {
				idx[i], idx[j] = idx[j], idx[i]
			}
		}
	}

	p := &Projection{Dim: d, K: k, Mean: mean}
	for c := 0; c < k; c++ {
		col := idx[c]
		comp := make([]float64, d)
		for r := 0; r < d; r++ {
			comp[r] = vecs[r][col]
		}
		p.Components = append(p.Components, comp)
		ev := vals[col]
		if ev < 0 {
			ev = 0 // numerical noise on rank-deficient data
		}
		p.Eigenvalues = append(p.Eigenvalues, ev)
	}
	return p, nil
}

// jacobiEigen computes all eigenvalues and eigenvectors of the symmetric
// matrix a using the cyclic Jacobi method. a is modified in place. The
// returned vecs matrix has eigenvectors in its columns.
func jacobiEigen(a [][]float64) (vals []float64, vecs [][]float64) {
	n := len(a)
	vecs = make([][]float64, n)
	for i := range vecs {
		vecs[i] = make([]float64, n)
		vecs[i][i] = 1
	}
	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Off-diagonal Frobenius norm.
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a[i][j] * a[i][j]
			}
		}
		if off < 1e-18 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a[p][q]
				if math.Abs(apq) < 1e-15 {
					continue
				}
				app := a[p][p]
				aqq := a[q][q]
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c

				a[p][p] = app - t*apq
				a[q][q] = aqq + t*apq
				a[p][q] = 0
				a[q][p] = 0
				for i := 0; i < n; i++ {
					if i == p || i == q {
						continue
					}
					aip := a[i][p]
					aiq := a[i][q]
					a[i][p] = c*aip - s*aiq
					a[p][i] = a[i][p]
					a[i][q] = s*aip + c*aiq
					a[q][i] = a[i][q]
				}
				for i := 0; i < n; i++ {
					vip := vecs[i][p]
					viq := vecs[i][q]
					vecs[i][p] = c*vip - s*viq
					vecs[i][q] = s*vip + c*viq
				}
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = a[i][i]
	}
	return vals, vecs
}

// Project maps an input vector to its k-dimensional PCA coefficients.
// It panics if the vector has the wrong dimensionality.
func (p *Projection) Project(v []float32) []float32 {
	out := make([]float32, p.K)
	p.ProjectInto(out, v)
	return out
}

// ProjectInto is Project writing the K coefficients into dst, for a
// caller that lays many projections out in one buffer.
func (p *Projection) ProjectInto(dst, v []float32) {
	if len(v) != p.Dim {
		panic(fmt.Sprintf("pca: project dim %d, want %d", len(v), p.Dim))
	}
	// The centered copy stays on the stack at descriptor size.
	var stack [128]float64
	centered := stack[:]
	if p.Dim > len(stack) {
		centered = make([]float64, p.Dim)
	}
	centered = centered[:p.Dim]
	for i, x := range v {
		centered[i] = float64(x) - p.Mean[i]
	}
	// Four components per pass over centered, one accumulator each: every
	// dot product is still summed over i in order, so each keeps its own
	// sequential chain and its bits, and the four chains overlap.
	comps := p.Components
	c := 0
	for ; c+4 <= len(comps); c += 4 {
		c0 := comps[c][:len(centered)]
		c1 := comps[c+1][:len(centered)]
		c2 := comps[c+2][:len(centered)]
		c3 := comps[c+3][:len(centered)]
		var d0, d1, d2, d3 float64
		for i, x := range centered {
			d0 += x * c0[i]
			d1 += x * c1[i]
			d2 += x * c2[i]
			d3 += x * c3[i]
		}
		dst[c], dst[c+1], dst[c+2], dst[c+3] = float32(d0), float32(d1), float32(d2), float32(d3)
	}
	for ; c < len(comps); c++ {
		comp := comps[c][:len(centered)]
		var dot float64
		for i, x := range centered {
			dot += x * comp[i]
		}
		dst[c] = float32(dot)
	}
}

// ProjectAll maps a batch of vectors.
func (p *Projection) ProjectAll(data [][]float32) [][]float32 {
	out := make([][]float32, len(data))
	for i, v := range data {
		out[i] = p.Project(v)
	}
	return out
}
