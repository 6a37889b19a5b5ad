package robust

import (
	"math/rand"
	"testing"

	"yukta/internal/lti"
	"yukta/internal/mat"
)

// Property-based checks over seeded random instances. Every loop draws from
// a fixed-seed rand.Rand, so failures reproduce exactly; the trial counts
// are sized to keep the whole file under a second.

// randCMatrix returns an n×n complex matrix with entries uniform in the
// unit square of the complex plane.
func randCMatrix(rng *rand.Rand, n int) *mat.CMatrix {
	m := mat.CZeros(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, complex(2*rng.Float64()-1, 2*rng.Float64()-1))
		}
	}
	return m
}

// randStable returns a random state-space system with spectral radius of A
// at most 0.85 (strictly stable, so frequency responses exist everywhere on
// the unit circle).
func randStable(rng *rand.Rand, n, m, p int) *lti.StateSpace {
	a := mat.Zeros(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	if r, err := mat.SpectralRadius(a); err == nil && r > 0 {
		a = a.Scale(0.85 / r)
	}
	fill := func(rows, cols int) *mat.Matrix {
		out := mat.Zeros(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				out.Set(i, j, rng.NormFloat64())
			}
		}
		return out
	}
	sys, err := lti.NewStateSpace(a, fill(n, m), fill(p, n), fill(p, m), 0.5)
	if err != nil {
		panic(err)
	}
	return sys
}

// TestMuBoundsBracketRandom asserts the defining bracket of the μ machinery
// on random complex matrices: the power-iteration lower bound never exceeds
// the D-scaling upper bound, and the upper bound never exceeds the
// unstructured maximum singular value (D = I is always admissible, so
// D-scaling can only tighten, never worsen, the bound).
func TestMuBoundsBracketRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(4)
		m := randCMatrix(rng, n)
		lo := MuLowerBound(m)
		hi := MuUpperBound(m)
		sig := mat.CMaxSingularValue(m)
		if lo > hi*(1+1e-9)+1e-12 {
			t.Fatalf("trial %d (n=%d): lower bound %.12f exceeds upper bound %.12f", trial, n, lo, hi)
		}
		if hi > sig*(1+1e-9)+1e-12 {
			t.Fatalf("trial %d (n=%d): D-scaling bound %.12f exceeds σ_max %.12f — scaling made the bound worse", trial, n, hi, sig)
		}
		if lo < 0 || hi < 0 {
			t.Fatalf("trial %d (n=%d): negative bound (lo=%g, hi=%g)", trial, n, lo, hi)
		}
	}
}

// TestMuScalarExact pins the n=1 case, where μ is exactly |m| and both
// bounds must agree with it.
func TestMuScalarExact(t *testing.T) {
	m := mat.CNew(1, 1, []complex128{complex(3, -4)})
	if lo := MuLowerBound(m); lo != 5 {
		t.Fatalf("MuLowerBound(3-4i) = %g, want 5", lo)
	}
	if hi := MuUpperBound(m); hi < 5-1e-9 || hi > 5+1e-6 {
		t.Fatalf("MuUpperBound(3-4i) = %g, want 5", hi)
	}
}

// TestDAREResidualRandom solves the Riccati equation for random stabilizable
// instances and asserts the residual of the defining equation stays below
// tolerance relative to the solution's magnitude, and that the solution is
// symmetric PSD on its diagonal.
func TestDAREResidualRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(4)
		m := 1 + rng.Intn(2)
		a := mat.Zeros(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		if r, err := mat.SpectralRadius(a); err == nil && r > 0 {
			a = a.Scale(0.9 / r)
		}
		b := mat.Zeros(n, m)
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				b.Set(i, j, rng.NormFloat64())
			}
		}
		// Q = GᵀG + 0.1 I is PSD with a detectability margin; R = I + HᵀH is PD.
		g := mat.Zeros(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				g.Set(i, j, rng.NormFloat64())
			}
		}
		q := g.T().Mul(g).Add(mat.Identity(n).Scale(0.1))
		h := mat.Zeros(m, m)
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				h.Set(i, j, rng.NormFloat64())
			}
		}
		r := mat.Identity(m).Add(h.T().Mul(h))

		x, err := SolveDARE(a, b, q, r)
		if err != nil {
			t.Fatalf("trial %d (n=%d, m=%d): %v", trial, n, m, err)
		}
		if res := dareResidual(a, b, q, r, x); res > 1e-8*(1+x.MaxAbs()) {
			t.Fatalf("trial %d (n=%d, m=%d): DARE residual %.3e for ‖X‖ %.3e", trial, n, m, res, x.MaxAbs())
		}
		if asym := x.Sub(x.T()).MaxAbs(); asym > 1e-9*(1+x.MaxAbs()) {
			t.Fatalf("trial %d: X asymmetric by %.3e", trial, asym)
		}
		for i := 0; i < n; i++ {
			if x.At(i, i) < -1e-9 {
				t.Fatalf("trial %d: X[%d,%d] = %.3e negative on the diagonal", trial, i, i, x.At(i, i))
			}
		}
	}
}

// TestSystemMuBoundsOrdered asserts lo ≤ hi for the frequency-gridded system
// bounds on random stable square systems — the pair the synthesis loop and
// the guardband tables consume.
func TestSystemMuBoundsOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(3)
		io := 2 + rng.Intn(2)
		sys := randStable(rng, n, io, io)
		lo, err := SystemMuLower(sys, 16)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		hi, err := SystemMu(sys, 16)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if lo > hi*(1+1e-9)+1e-12 {
			t.Fatalf("trial %d: system μ lower bound %.9f exceeds upper bound %.9f", trial, lo, hi)
		}
		if hi <= 0 {
			t.Fatalf("trial %d: non-positive upper bound %.9f for a nonzero system", trial, hi)
		}
	}
}
