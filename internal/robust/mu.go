package robust

import (
	"math"
	"math/cmplx"
	"runtime"

	"yukta/internal/lti"
	"yukta/internal/mat"
	"yukta/internal/pool"
)

// MuUpperBound returns an upper bound on the structured singular value μ(M)
// for a block structure of scalar complex uncertainties (one 1×1 block per
// channel, the structure produced by Yukta's per-signal guardbands and
// quantization blocks):
//
//	μ(M) ≤ min over diagonal D > 0 of σ_max(D M D^-1)
//
// The minimization starts from MuStartBound's scaling and is refined with
// cyclic coordinate descent on the diagonal entries of D, so the result is
// never above MuStartBound(M).
func MuUpperBound(m *mat.CMatrix) float64 { return muBound(m, true) }

// MuStartBound returns the start point of MuUpperBound's descent: the
// smaller of σ_max(D M D^-1) under the Perron scaling of |M| (optimal for
// nonnegative matrices) and σ_max(M) itself. Any diagonal D > 0 gives a
// valid upper bound on μ(M), so this is one too, at the cost of two σ_max
// evaluations; it has the same bits as the value MuUpperBound starts from.
func MuStartBound(m *mat.CMatrix) float64 { return muBound(m, false) }

// muBound is MuUpperBound, stopping at the start point unless descend is
// set.
func muBound(m *mat.CMatrix, descend bool) float64 {
	n := m.Rows()
	if n != m.Cols() {
		// μ is defined for the square interconnection matrix; callers must
		// pass the Δ-facing square block.
		panic("robust: MuUpperBound requires a square matrix")
	}
	if n == 0 {
		return 0
	}
	if n == 1 {
		return cmplx.Abs(m.At(0, 0))
	}
	// Perron initialization on |M|: D_i = sqrt(u_i / v_i) where u, v are the
	// left and right Perron vectors of the elementwise absolute value.
	absM := mat.Zeros(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			absM.Set(i, j, cmplx.Abs(m.At(i, j)))
		}
	}
	u := perronVector(absM.T())
	v := perronVector(absM)
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		if v[i] <= 1e-300 || u[i] <= 1e-300 {
			d[i] = 1
		} else {
			d[i] = math.Sqrt(u[i] / v[i])
		}
	}
	// One scaled-matrix buffer and one σ_max workspace serve every trial.
	dm := mat.CZeros(n, n)
	var sv mat.CMaxSVWork
	scaled := func(d []float64) float64 {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dm.Set(i, j, m.At(i, j)*complex(d[i]/d[j], 0))
			}
		}
		return sv.MaxSingularValue(dm)
	}
	best := scaled(d)
	if plain := sv.MaxSingularValue(m); plain < best {
		// Identity scaling is sometimes better than Perron for complex M.
		for i := range d {
			d[i] = 1
		}
		best = plain
	}
	if !descend {
		return best
	}
	// Cyclic coordinate descent with multiplicative steps.
	step := 1.5
	trial := make([]float64, n)
	for pass := 0; pass < 30 && step > 1.001; pass++ {
		improved := false
		for i := 0; i < n; i++ {
			for _, f := range [2]float64{step, 1 / step} {
				copy(trial, d)
				trial[i] *= f
				if s := scaled(trial); s < best-1e-12 {
					best = s
					copy(d, trial)
					improved = true
				}
			}
		}
		if !improved {
			step = math.Sqrt(step)
		}
	}
	return best
}

// perronVector returns the (entrywise nonnegative) dominant eigenvector of a
// nonnegative matrix via power iteration, normalized to unit 1-norm.
func perronVector(a *mat.Matrix) []float64 {
	n := a.Rows()
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	w := make([]float64, n)
	for iter := 0; iter < 200; iter++ {
		w = a.MulVecTo(w, v)
		var s float64
		for _, x := range w {
			s += math.Abs(x)
		}
		if s == 0 {
			return v
		}
		var diff float64
		for i := range w {
			w[i] /= s
			diff += math.Abs(w[i] - v[i])
		}
		v, w = w, v
		if diff < 1e-13 {
			break
		}
	}
	return v
}

// SystemMu returns the peak of MuUpperBound over the unit circle for the
// square transfer matrix of sys, evaluated on a frequency grid of nGrid
// points (plus DC and Nyquist): the refined upper bound the SSV synthesis
// loop decides on when SystemMuStart does not already certify.
func SystemMu(sys *lti.StateSpace, nGrid int) (float64, error) {
	return gridPeak(sys, nGrid, MuUpperBound)
}

// SystemMuStart returns the peak of MuStartBound over the same frequency
// grid as SystemMu. It is a valid upper bound on the system's μ, never below
// SystemMu, and costs two σ_max evaluations per grid point instead of a
// descent.
func SystemMuStart(sys *lti.StateSpace, nGrid int) (float64, error) {
	return gridPeak(sys, nGrid, MuStartBound)
}

// SystemMuLower returns the peak of MuLowerBound over the same frequency
// grid as SystemMu: the lower end of the bracket, computed without the
// upper-bound sweep.
func SystemMuLower(sys *lti.StateSpace, nGrid int) (float64, error) {
	return gridPeak(sys, nGrid, MuLowerBound)
}

// gridPeak evaluates bound on G(e^{jθ}) at θ = πi/nGrid for i = 0…nGrid and
// returns the largest value, or +Inf when sys has a pole on the unit circle.
// The points are spread over GOMAXPROCS workers; each writes its own slot
// and the maximum is taken serially in index order, so the result has the
// same bits at any parallelism.
func gridPeak(sys *lti.StateSpace, nGrid int, bound func(*mat.CMatrix) float64) (float64, error) {
	if nGrid < 8 {
		nGrid = 8
	}
	vals := make([]float64, nGrid+1)
	err := pool.ForEach(runtime.GOMAXPROCS(0), len(vals), func(i int) error {
		theta := math.Pi * float64(i) / float64(nGrid)
		g, err := sys.Evaluate(cmplx.Exp(complex(0, theta)))
		if err != nil {
			return err
		}
		vals[i] = bound(g)
		return nil
	})
	if err != nil {
		return math.Inf(1), nil // pole on the unit circle
	}
	peak := 0.0
	for _, v := range vals {
		if v > peak {
			peak = v
		}
	}
	return peak, nil
}
