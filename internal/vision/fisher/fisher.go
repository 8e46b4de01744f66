// Package fisher implements Fisher-vector encoding over a diagonal-
// covariance Gaussian mixture model, the second half of scAtteR's encoding
// service (Perronnin et al., CVPR 2010). A set of PCA-compressed local
// descriptors is aggregated into a single fixed-length vector: the
// gradients of the GMM log-likelihood with respect to each component's
// mean and variance, followed by power ("signed square-root") and L2
// normalization.
package fisher

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"github.com/edge-mar/scatter/internal/vision/parallel"
)

// emGrain and encodeGrain are the fixed per-chunk sample counts for the
// parallel EM E-step and Encode accumulation. Chunk boundaries depend only
// on the input size, so per-chunk partial sums merged in chunk order are
// bit-identical at any worker count (floating-point addition is not
// associative, so the merge order — not just the math — is part of the
// determinism contract).
const (
	emGrain     = 64
	encodeGrain = 32
)

// scratch pools reused across EM iterations and Encode calls.
var f64Pool parallel.SlicePool[float64]

// ErrBadInput is returned by TrainGMM for degenerate training input.
var ErrBadInput = errors.New("fisher: bad input")

// GMM is a Gaussian mixture model with diagonal covariances.
type GMM struct {
	K       int         // number of components
	Dim     int         // descriptor dimensionality
	Weights []float64   // mixing weights, sum to 1
	Means   [][]float64 // K × Dim
	Vars    [][]float64 // K × Dim, diagonal covariances (floored)
}

// varFloor prevents components from collapsing onto single points.
const varFloor = 1e-4

// TrainGMM fits a k-component diagonal GMM to data using EM, initialized
// with a k-means++-style seeding from the given deterministic seed. The
// E-step is sharded across the worker pool; results are bit-identical to
// the serial path for any GOMAXPROCS.
func TrainGMM(data [][]float32, k, iters int, seed int64) (*GMM, error) {
	return trainGMM(data, k, iters, seed, 0)
}

// trainGMM is TrainGMM with an explicit worker count (0 = GOMAXPROCS,
// 1 = serial) — the knob the parallel-vs-serial equivalence tests use.
func trainGMM(data [][]float32, k, iters int, seed int64, workers int) (*GMM, error) {
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("%w: no samples", ErrBadInput)
	}
	if k <= 0 || k > n {
		return nil, fmt.Errorf("%w: k=%d with %d samples", ErrBadInput, k, n)
	}
	dim := len(data[0])
	if dim == 0 {
		return nil, fmt.Errorf("%w: zero-dimensional samples", ErrBadInput)
	}
	for i, row := range data {
		if len(row) != dim {
			return nil, fmt.Errorf("%w: sample %d has dim %d, want %d", ErrBadInput, i, len(row), dim)
		}
	}
	rng := rand.New(rand.NewSource(seed))

	g := &GMM{K: k, Dim: dim}
	g.Weights = make([]float64, k)
	g.Means = make([][]float64, k)
	g.Vars = make([][]float64, k)

	// k-means++ seeding for the means.
	first := rng.Intn(n)
	g.Means[0] = toF64(data[first])
	d2 := make([]float64, n)
	for c := 1; c < k; c++ {
		// Each d2[i] is independent and exact, so the scan parallelizes
		// without affecting determinism; the weighted pick below sums d2
		// serially in index order.
		parallel.For(workers, n, emGrain, func(_, start, end int) {
			for i := start; i < end; i++ {
				best := math.Inf(1)
				for cc := 0; cc < c; cc++ {
					d := sqDist(data[i], g.Means[cc])
					if d < best {
						best = d
					}
				}
				d2[i] = best
			}
		})
		var sum float64
		for _, d := range d2 {
			sum += d
		}
		var pick int
		if sum == 0 {
			pick = rng.Intn(n)
		} else {
			target := rng.Float64() * sum
			acc := 0.0
			for i, d := range d2 {
				acc += d
				if acc >= target {
					pick = i
					break
				}
			}
		}
		g.Means[c] = toF64(data[pick])
	}

	// Global variance initializes component variances.
	globalMean := make([]float64, dim)
	for _, row := range data {
		for j, v := range row {
			globalMean[j] += float64(v)
		}
	}
	for j := range globalMean {
		globalMean[j] /= float64(n)
	}
	globalVar := make([]float64, dim)
	for _, row := range data {
		for j, v := range row {
			d := float64(v) - globalMean[j]
			globalVar[j] += d * d
		}
	}
	for j := range globalVar {
		globalVar[j] = math.Max(globalVar[j]/float64(n), varFloor)
	}
	for c := 0; c < k; c++ {
		g.Weights[c] = 1 / float64(k)
		g.Vars[c] = append([]float64(nil), globalVar...)
	}

	// EM iterations. The E-step shards samples across the pool; each chunk
	// accumulates into a pooled flat buffer laid out as
	// [nk (k) | sum (k×dim) | sumSq (k×dim)], merged in chunk order.
	nk := make([]float64, k)
	sum := make([][]float64, k)
	sumSq := make([][]float64, k)
	for c := range sum {
		sum[c] = make([]float64, dim)
		sumSq[c] = make([]float64, dim)
	}
	accLen := k + 2*k*dim
	parts := make([][]float64, parallel.Chunks(n, emGrain))
	logs := newLogTables(g)
	for it := 0; it < iters; it++ {
		logs.fill(g)
		for c := 0; c < k; c++ {
			nk[c] = 0
			for j := 0; j < dim; j++ {
				sum[c][j] = 0
				sumSq[c][j] = 0
			}
		}
		parallel.For(workers, n, emGrain, func(chunk, start, end int) {
			acc := f64Pool.Get(accLen)
			resp := f64Pool.Get(k)
			for i := start; i < end; i++ {
				row := data[i]
				g.posteriorsInto(logs, row, resp)
				for c := 0; c < k; c++ {
					r := resp[c]
					if r == 0 {
						continue
					}
					acc[c] += r
					sc := acc[k+c*dim : k+(c+1)*dim]
					sq := acc[k+k*dim+c*dim : k+k*dim+(c+1)*dim]
					for j, v := range row {
						x := float64(v)
						sc[j] += r * x
						sq[j] += r * x * x
					}
				}
			}
			f64Pool.Put(resp)
			parts[chunk] = acc
		})
		for _, acc := range parts {
			for c := 0; c < k; c++ {
				nk[c] += acc[c]
				sc := acc[k+c*dim : k+(c+1)*dim]
				sq := acc[k+k*dim+c*dim : k+k*dim+(c+1)*dim]
				for j := 0; j < dim; j++ {
					sum[c][j] += sc[j]
					sumSq[c][j] += sq[j]
				}
			}
			f64Pool.Put(acc)
		}
		for c := 0; c < k; c++ {
			if nk[c] < 1e-10 {
				// Dead component: re-seed on a random sample.
				g.Means[c] = toF64(data[rng.Intn(n)])
				g.Vars[c] = append([]float64(nil), globalVar...)
				g.Weights[c] = 1e-6
				continue
			}
			g.Weights[c] = nk[c] / float64(n)
			for j := 0; j < dim; j++ {
				mu := sum[c][j] / nk[c]
				g.Means[c][j] = mu
				v := sumSq[c][j]/nk[c] - mu*mu
				g.Vars[c][j] = math.Max(v, varFloor)
			}
		}
		normalizeWeights(g.Weights)
	}
	return g, nil
}

func toF64(v []float32) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

func sqDist(a []float32, b []float64) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - b[i]
		s += d * d
	}
	return s
}

func normalizeWeights(w []float64) {
	var s float64
	for _, v := range w {
		s += v
	}
	if s == 0 {
		for i := range w {
			w[i] = 1 / float64(len(w))
		}
		return
	}
	for i := range w {
		w[i] /= s
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

// logTables holds the per-component logarithms the posterior loop would
// otherwise recompute for every sample, each from the expression
// logGaussian uses, so the posteriors keep their bits: logW[c] is
// math.Log(w_c) and, at c*Dim+j, logNorm holds math.Log(2π·var_cj).
type logTables struct {
	logW, logNorm []float64
}

func newLogTables(g *GMM) *logTables {
	return &logTables{logW: make([]float64, g.K), logNorm: make([]float64, g.K*g.Dim)}
}

// fill tabulates g's current weights and variances.
func (t *logTables) fill(g *GMM) {
	for c := 0; c < g.K; c++ {
		t.logW[c] = math.Log(g.Weights[c])
		for j := 0; j < g.Dim; j++ {
			t.logNorm[c*g.Dim+j] = math.Log(2 * math.Pi * g.Vars[c][j])
		}
	}
}

// posteriorsInto computes p(c | x) for each component into out (length K),
// using the log-sum-exp trick for numerical stability. logs must have been
// filled from g's current weights and variances.
func (g *GMM) posteriorsInto(logs *logTables, x []float32, out []float64) {
	maxLog := math.Inf(-1)
	for c := 0; c < g.K; c++ {
		if g.Weights[c] <= 0 {
			out[c] = math.Inf(-1)
			continue
		}
		mean, vars := g.Means[c][:len(x)], g.Vars[c][:len(x)]
		logNorm := logs.logNorm[c*g.Dim : c*g.Dim+len(x)]
		acc := 0.0
		for j, v := range x {
			d := float64(v) - mean[j]
			acc += d*d/vars[j] + logNorm[j]
		}
		out[c] = logs.logW[c] + -0.5*acc
		if out[c] > maxLog {
			maxLog = out[c]
		}
	}
	if math.IsInf(maxLog, -1) {
		for c := range out {
			out[c] = 1 / float64(g.K)
		}
		return
	}
	var sum float64
	for c := 0; c < g.K; c++ {
		out[c] = math.Exp(out[c] - maxLog)
		sum += out[c]
	}
	for c := range out {
		out[c] /= sum
	}
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

// Encoder aggregates descriptor sets into Fisher vectors. It is safe for
// concurrent use.
type Encoder struct {
	gmm  *GMM
	logs *logTables
	// sd holds math.Sqrt(var_cj) at c*Dim+j, tabulated once rather than
	// recomputed for every descriptor.
	sd []float64
	// Workers bounds the worker pool sharding descriptors during Encode.
	// Zero uses GOMAXPROCS; one forces the serial path. The encoding is
	// bit-identical at any setting.
	Workers int
}

// NewEncoder returns an Encoder over the fitted mixture model. The
// encoder assumes g is not modified after NewEncoder.
func NewEncoder(g *GMM) *Encoder {
	if g == nil {
		panic("fisher: nil GMM")
	}
	e := &Encoder{gmm: g, logs: newLogTables(g), sd: make([]float64, g.K*g.Dim)}
	e.logs.fill(g)
	for c := 0; c < g.K; c++ {
		for j := 0; j < g.Dim; j++ {
			e.sd[c*g.Dim+j] = math.Sqrt(g.Vars[c][j])
		}
	}
	return e
}

// Size returns the Fisher vector dimensionality: 2 × K × Dim (mean and
// variance gradients per component).
func (e *Encoder) Size() int { return 2 * e.gmm.K * e.gmm.Dim }

// Encode computes the improved Fisher vector of a descriptor set: the
// normalized gradients with respect to component means and variances,
// power-normalized (signed sqrt) and L2-normalized. An empty descriptor
// set encodes to the zero vector.
func (e *Encoder) Encode(descs [][]float32) []float32 {
	fv := f64Pool.Get(e.Size())
	out := e.encodeInto(descs, fv)
	f64Pool.Put(fv)
	return out
}

// encodeInto runs the Fisher encoding into the caller's zeroed float64
// accumulator (length Size()) and returns the normalized float32 vector.
func (e *Encoder) encodeInto(descs [][]float32, fv []float64) []float32 {
	g := e.gmm
	if len(descs) == 0 {
		return make([]float32, len(fv))
	}
	for _, x := range descs {
		if len(x) != g.Dim {
			panic(fmt.Sprintf("fisher: descriptor dim %d, want %d", len(x), g.Dim))
		}
	}
	// Shard descriptors across the pool: each chunk accumulates gradients
	// into a pooled partial vector, merged in chunk order so the result is
	// bit-identical regardless of worker count.
	parts := make([][]float64, parallel.Chunks(len(descs), encodeGrain))
	parallel.For(e.Workers, len(descs), encodeGrain, func(chunk, start, end int) {
		part := f64Pool.Get(len(fv))
		resp := f64Pool.Get(g.K)
		for i := start; i < end; i++ {
			x := descs[i]
			g.posteriorsInto(e.logs, x, resp)
			for c := 0; c < g.K; c++ {
				r := resp[c]
				if r < 1e-12 {
					continue
				}
				off := c * g.Dim
				mean, sd := g.Means[c][:len(x)], e.sd[off:off+len(x)]
				mu := part[off : off+len(x)]
				sig := part[(g.K+c)*g.Dim : (g.K+c)*g.Dim+len(x)]
				for j, v := range x {
					u := (float64(v) - mean[j]) / sd[j]
					mu[j] += r * u
					sig[j] += r * (u*u - 1)
				}
			}
		}
		f64Pool.Put(resp)
		parts[chunk] = part
	})
	for _, part := range parts {
		for i, v := range part {
			fv[i] += v
		}
		f64Pool.Put(part)
	}
	// Fisher information normalization.
	nInv := 1 / float64(len(descs))
	for c := 0; c < g.K; c++ {
		w := g.Weights[c]
		if w <= 0 {
			continue
		}
		muScale := nInv / math.Sqrt(w)
		sigScale := nInv / math.Sqrt(2*w)
		muOff := c * g.Dim
		sigOff := (g.K + c) * g.Dim
		for j := 0; j < g.Dim; j++ {
			fv[muOff+j] *= muScale
			fv[sigOff+j] *= sigScale
		}
	}
	// Power normalization: sign(z) * sqrt(|z|).
	for i, v := range fv {
		fv[i] = math.Copysign(math.Sqrt(math.Abs(v)), v)
	}
	// L2 normalization.
	var norm float64
	for _, v := range fv {
		norm += v * v
	}
	out := make([]float32, len(fv))
	if norm > 0 {
		norm = math.Sqrt(norm)
		for i, v := range fv {
			out[i] = float32(v / norm)
		}
	}
	return out
}
