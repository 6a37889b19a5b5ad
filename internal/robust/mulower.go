package robust

import (
	"math"
	"math/cmplx"

	"yukta/internal/mat"
)

// MuLowerBound returns a lower bound on the structured singular value μ(M)
// for the scalar complex uncertainty structure, via the standard power
// iteration: μ(M) = max over diagonal unitary U of ρ(U M), and the
// iteration seeks a fixed point of the associated alignment condition. The
// returned value is the largest |λ| found; together with MuUpperBound it
// brackets μ, and the gap indicates how conservative the D-scaling bound is
// (MATLAB's mussv reports the same pair).
func MuLowerBound(m *mat.CMatrix) float64 {
	n := m.Rows()
	if n != m.Cols() {
		panic("robust: MuLowerBound requires a square matrix")
	}
	if n == 0 {
		return 0
	}
	if n == 1 {
		return cmplx.Abs(m.At(0, 0))
	}
	best := 0.0
	// Scratch reused by every restart and iteration: the iterate b and its
	// successor next (swapped each step), M b, and the certified U M.
	b, next := make([]complex128, n), make([]complex128, n)
	a := make([]complex128, n)
	um := mat.CZeros(n, n)
	// Several deterministic restarts: the power iteration for μ is not
	// globally convergent, so restart from varied phase patterns. Each
	// restart's candidate is *certified* by evaluating ρ(U M) for the
	// explicit diagonal unitary U the iteration aligned — U is a feasible
	// worst-case uncertainty direction, so ρ(U M) is always a valid lower
	// bound (μ(M) = max over diagonal unitary U of ρ(U M) for this
	// structure), even when the iteration has not converged.
	for restart := 0; restart < 4; restart++ {
		for i := range b {
			theta := 2 * math.Pi * float64(i*(restart+1)) / float64(n+1)
			b[i] = cmplx.Exp(complex(0, theta))
		}
		normalizeVec(b)
		for iter := 0; iter < 60; iter++ {
			// a = M b, then align the uncertainty phases and iterate with
			// b ← normalized phase-aligned a.
			mulVecTo(a, m, b)
			if vecNorm(a) == 0 {
				break
			}
			for i := range next {
				ph := cmplx.Conj(phase(a[i]) * cmplx.Conj(phase(b[i])))
				next[i] = a[i] * ph
			}
			normalizeVec(next)
			// Certify this iterate: U aligns M's output phases back onto b.
			for i := 0; i < n; i++ {
				u := phase(b[i]) * cmplx.Conj(phase(a[i]))
				for j := 0; j < n; j++ {
					um.Set(i, j, u*m.At(i, j))
				}
			}
			if rho := complexSpectralRadius(um); rho > best {
				best = rho
			}
			var diff float64
			for i := range b {
				diff += cmplx.Abs(next[i] - b[i])
			}
			b, next = next, b
			if diff < 1e-9 {
				break
			}
		}
	}
	// ρ(M) itself (U = I) is always a valid lower bound too.
	if rho := complexSpectralRadius(m); rho > best {
		best = rho
	}
	return best
}

// complexSpectralRadius computes ρ(M) through the real 2n×2n embedding.
func complexSpectralRadius(m *mat.CMatrix) float64 {
	n := m.Rows()
	re := mat.Zeros(2*n, 2*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := m.At(i, j)
			re.Set(i, j, real(v))
			re.Set(i, n+j, -imag(v))
			re.Set(n+i, j, imag(v))
			re.Set(n+i, n+j, real(v))
		}
	}
	rho, err := mat.SpectralRadius(re)
	if err != nil {
		return 0
	}
	return rho
}

func phase(v complex128) complex128 {
	a := cmplx.Abs(v)
	if a == 0 {
		return 1
	}
	return v / complex(a, 0)
}

// mulVecTo sets out = m v for square m.
func mulVecTo(out []complex128, m *mat.CMatrix, v []complex128) {
	n := m.Rows()
	for i := 0; i < n; i++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += m.At(i, j) * v[j]
		}
		out[i] = s
	}
}

func vecNorm(v []complex128) float64 {
	var s float64
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return math.Sqrt(s)
}

func normalizeVec(v []complex128) {
	n := vecNorm(v)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] /= complex(n, 0)
	}
}
