package robust

import (
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"

	"yukta/internal/lti"
	"yukta/internal/mat"
)

// The ref* functions are the μ kernels as they were before they moved onto
// scratch buffers and a parallel frequency grid, kept verbatim (down to the
// allocating σ_max they called) as differential references: the fast kernels
// must return the same bits on every input.

func refCMaxSingularValue(m *mat.CMatrix) float64 {
	if m.Rows() == 0 || m.Cols() == 0 {
		return 0
	}
	h := m.ConjT().Mul(m) // n×n Hermitian positive semidefinite
	n := h.Rows()
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(1+float64(i%3), float64(i%2))
	}
	normalize := func(v []complex128) float64 {
		var s float64
		for _, x := range v {
			s += real(x)*real(x) + imag(x)*imag(x)
		}
		nrm := math.Sqrt(s)
		if nrm == 0 {
			return 0
		}
		for i := range v {
			v[i] /= complex(nrm, 0)
		}
		return nrm
	}
	normalize(v)
	lambda := 0.0
	for iter := 0; iter < 500; iter++ {
		w := make([]complex128, n)
		for i := 0; i < n; i++ {
			var s complex128
			for j := 0; j < n; j++ {
				s += h.At(i, j) * v[j]
			}
			w[i] = s
		}
		nl := normalize(w)
		v = w
		if nl == 0 {
			return 0
		}
		if math.Abs(nl-lambda) <= 1e-12*math.Max(1, nl) {
			lambda = nl
			break
		}
		lambda = nl
	}
	return math.Sqrt(lambda)
}

func refMuUpperBound(m *mat.CMatrix) float64 {
	n := m.Rows()
	if n != m.Cols() {
		panic("robust: MuUpperBound requires a square matrix")
	}
	if n == 0 {
		return 0
	}
	if n == 1 {
		return cmplx.Abs(m.At(0, 0))
	}
	absM := mat.Zeros(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			absM.Set(i, j, cmplx.Abs(m.At(i, j)))
		}
	}
	u := refPerronVector(absM.T())
	v := refPerronVector(absM)
	d := make([]float64, n)
	for i := 0; i < n; i++ {
		if v[i] <= 1e-300 || u[i] <= 1e-300 {
			d[i] = 1
		} else {
			d[i] = math.Sqrt(u[i] / v[i])
		}
	}
	scaled := func(d []float64) float64 {
		dm := m.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dm.Set(i, j, dm.At(i, j)*complex(d[i]/d[j], 0))
			}
		}
		return refCMaxSingularValue(dm)
	}
	best := scaled(d)
	if plain := refCMaxSingularValue(m); plain < best {
		for i := range d {
			d[i] = 1
		}
		best = plain
	}
	step := 1.5
	for pass := 0; pass < 30 && step > 1.001; pass++ {
		improved := false
		for i := 0; i < n; i++ {
			for _, f := range []float64{step, 1 / step} {
				trial := make([]float64, n)
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

func refPerronVector(a *mat.Matrix) []float64 {
	n := a.Rows()
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	for iter := 0; iter < 200; iter++ {
		w := a.MulVec(v)
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
		v = w
		if diff < 1e-13 {
			break
		}
	}
	return v
}

func refMuLowerBound(m *mat.CMatrix) float64 {
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
	for restart := 0; restart < 4; restart++ {
		b := make([]complex128, n)
		for i := range b {
			theta := 2 * math.Pi * float64(i*(restart+1)) / float64(n+1)
			b[i] = cmplx.Exp(complex(0, theta))
		}
		normalizeVec(b)
		var a []complex128
		for iter := 0; iter < 60; iter++ {
			a = refMulVec(m, b)
			if vecNorm(a) == 0 {
				break
			}
			next := make([]complex128, n)
			for i := range next {
				ph := cmplx.Conj(phase(a[i]) * cmplx.Conj(phase(b[i])))
				next[i] = a[i] * ph
			}
			normalizeVec(next)
			um := m.Clone()
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
			b = next
			if diff < 1e-9 {
				break
			}
		}
	}
	if rho := complexSpectralRadius(m); rho > best {
		best = rho
	}
	return best
}

func refMulVec(m *mat.CMatrix, v []complex128) []complex128 {
	n := m.Rows()
	out := make([]complex128, n)
	for i := 0; i < n; i++ {
		var s complex128
		for j := 0; j < n; j++ {
			s += m.At(i, j) * v[j]
		}
		out[i] = s
	}
	return out
}

// refSystemMuBounds is the serial one-pass frequency sweep.
func refSystemMuBounds(sys *lti.StateSpace, nGrid int, withLower bool) (lo, hi float64, err error) {
	if nGrid < 8 {
		nGrid = 8
	}
	for i := 0; i <= nGrid; i++ {
		theta := math.Pi * float64(i) / float64(nGrid)
		g, err := sys.Evaluate(cmplx.Exp(complex(0, theta)))
		if err != nil {
			return math.Inf(1), math.Inf(1), nil
		}
		if v := refMuUpperBound(g); v > hi {
			hi = v
		}
		if withLower {
			if v := refMuLowerBound(g); v > lo {
				lo = v
			}
		}
	}
	return lo, hi, nil
}

// edgeSquare returns an n×n complex matrix mixing general entries with exact
// 0 and -0 parts and purely real or purely imaginary entries, the inputs on
// which a reordered or differently rounded kernel would show.
func edgeSquare(rng *rand.Rand, n int, special float64) *mat.CMatrix {
	negZero := math.Copysign(0, -1)
	scale := math.Ldexp(1, rng.Intn(13)-6)
	data := make([]complex128, n*n)
	for i := range data {
		x, y := scale*rng.NormFloat64(), scale*rng.NormFloat64()
		if rng.Float64() < special {
			switch rng.Intn(6) {
			case 0:
				x, y = 0, 0
			case 1:
				x, y = negZero, 0
			case 2:
				x, y = 0, negZero
			case 3:
				x, y = negZero, negZero
			case 4:
				y = []float64{0, negZero}[rng.Intn(2)] // purely real
			case 5:
				x = []float64{0, negZero}[rng.Intn(2)] // purely imaginary
			}
		}
		data[i] = complex(x, y)
	}
	return mat.CNew(n, n, data)
}

// muDiffMatrices is how many seeded matrices each μ-kernel differential
// test checks, cycling through sizes 1–16 and the edge-entry densities. A
// generic 16×16 matrix costs the reference kernels about half a second, so
// the count is kept to what a test run can afford; the σ_max kernel under
// both bounds is checked on 10⁴ matrices in package mat.
const muDiffMatrices = 48

// TestMuUpperBoundMatchesReference requires bit-equality of the scratch-
// buffer D-scaling bound with the pre-change one on seeded matrices of every
// size 1–16.
func TestMuUpperBoundMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for k := 0; k < muDiffMatrices; k++ {
		n := 1 + k%16
		m := edgeSquare(rng, n, []float64{0, 0.2, 0.6, 1}[(k+k/16)%4])
		want := math.Float64bits(refMuUpperBound(m))
		if got := math.Float64bits(MuUpperBound(m)); got != want {
			t.Fatalf("matrix %d (%dx%d): MuUpperBound bits %#x, reference %#x", k, n, n, got, want)
		}
	}
}

// TestMuLowerBoundMatchesReference is the same differential check for the
// power-iteration lower bound, whose per-iteration vectors and certified
// U·M matrix now live in buffers lifted out of the loop.
func TestMuLowerBoundMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	for k := 0; k < muDiffMatrices; k++ {
		n := 1 + k%16
		m := edgeSquare(rng, n, []float64{0, 0.2, 0.6, 1}[(k+k/16)%4])
		want := math.Float64bits(refMuLowerBound(m))
		if got := math.Float64bits(MuLowerBound(m)); got != want {
			t.Fatalf("matrix %d (%dx%d): MuLowerBound bits %#x, reference %#x", k, n, n, got, want)
		}
	}
}

// TestMuUpperBoundAllocs bounds the allocations of one D-scaling bound on a
// 12×12 input (the HW closed-loop size) by a small constant: the descent's
// trials and the σ_max power iterations must reuse their buffers, so the
// count does not grow with passes or iterations.
func TestMuUpperBoundAllocs(t *testing.T) {
	m := edgeSquare(rand.New(rand.NewSource(12)), 12, 0)
	if a := testing.AllocsPerRun(5, func() { MuUpperBound(m) }); a > 16 {
		t.Errorf("MuUpperBound(12×12): %v allocs per call, want <= 16", a)
	}
}

// TestSystemMuGridDeterministic requires the parallel frequency sweeps on a
// synthesized closed loop to return the same bits at GOMAXPROCS 1 and 2, and
// the same bits as the serial one-pass reference sweep.
func TestSystemMuGridDeterministic(t *testing.T) {
	spec := testSpec()
	ctl, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := buildClosedLoop(spec, ctl.K, spec.resolveTargetScales())
	if err != nil {
		t.Fatal(err)
	}
	refLo, refHi, _ := refSystemMuBounds(cl, 24, true)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		hi, err := SystemMu(cl, 24)
		if err != nil {
			t.Fatal(err)
		}
		lo, err := SystemMuLower(cl, 24)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(hi) != math.Float64bits(refHi) {
			t.Errorf("GOMAXPROCS=%d: SystemMu %v, serial reference %v", procs, hi, refHi)
		}
		if math.Float64bits(lo) != math.Float64bits(refLo) {
			t.Errorf("GOMAXPROCS=%d: SystemMuLower %v, serial reference %v", procs, lo, refLo)
		}
	}
}

// TestFillSSVLowerMatchesSweep checks that the bracket fill reports the
// lower sweep Synthesize used to run on acceptance, and only for certified
// designs.
func TestFillSSVLowerMatchesSweep(t *testing.T) {
	spec := testSpec()
	ctl, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Report.SSVLower != 0 {
		t.Fatalf("Synthesize filled SSVLower = %v, want 0", ctl.Report.SSVLower)
	}
	cl, err := buildClosedLoop(spec, ctl.K, spec.resolveTargetScales())
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := refSystemMuBounds(cl, 24, true)
	FillBracket(spec, ctl)
	if math.Float64bits(ctl.Report.SSVLower) != math.Float64bits(want) {
		t.Fatalf("SSVLower = %v, want the 24-point lower sweep %v", ctl.Report.SSVLower, want)
	}
	if lo := ctl.Report.SSVLower; lo <= 0 || lo > ctl.Report.SSV*(1+1e-9) {
		t.Fatalf("SSVLower = %v outside (0, SSV = %v]", lo, ctl.Report.SSV)
	}
	uncertified := *ctl
	uncertified.Report.SSV, uncertified.Report.SSVLower = 1.5, 0
	FillBracket(spec, &uncertified)
	if uncertified.Report.SSVLower != 0 {
		t.Fatalf("FillBracket filled an uncertified design: %v", uncertified.Report.SSVLower)
	}
}
