package mat

import (
	"math"
	"math/rand"
	"testing"
)

// refCMaxSingularValue is CMaxSingularValue as it was before it moved onto
// reusable scratch space, kept verbatim as the differential reference: the
// scratch version must return the same bits on every input.
func refCMaxSingularValue(m *CMatrix) float64 {
	if m.rows == 0 || m.cols == 0 {
		return 0
	}
	h := m.ConjT().Mul(m) // n×n Hermitian positive semidefinite
	n := h.rows
	// Deterministic start vector with nonzero projection on the dominant
	// eigenvector in all but adversarial cases; perturb on stagnation.
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
			row := h.data[i*n : (i+1)*n]
			for j, hv := range row {
				s += hv * v[j]
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

// edgeCMatrix returns an r×c matrix whose entries mix general complex
// values with the cases where a reordered or differently rounded kernel
// would show: exact 0 and -0 in either part, and purely real or purely
// imaginary entries. special is the probability that an entry is one of
// those cases rather than a general value.
func edgeCMatrix(rng *rand.Rand, r, c int, special float64) *CMatrix {
	negZero := math.Copysign(0, -1)
	scale := math.Ldexp(1, rng.Intn(21)-10)
	m := CZeros(r, c)
	for i := range m.data {
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
		m.data[i] = complex(x, y)
	}
	return m
}

// TestCMaxSingularValueMatchesReference requires bit-equality with the
// pre-scratch σ_max on 10⁴ seeded matrices, square and rectangular, sizes
// 1–16, through both the allocating entry point and one reused workspace.
func TestCMaxSingularValueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var w CMaxSVWork
	for k := 0; k < 10000; k++ {
		r, c := 1+rng.Intn(16), 1+rng.Intn(16)
		if k%2 == 0 {
			c = r
		}
		special := []float64{0, 0.2, 0.6, 1}[k%4]
		m := edgeCMatrix(rng, r, c, special)
		want := math.Float64bits(refCMaxSingularValue(m))
		if got := math.Float64bits(CMaxSingularValue(m)); got != want {
			t.Fatalf("matrix %d (%dx%d): CMaxSingularValue bits %#x, reference %#x", k, r, c, got, want)
		}
		if got := math.Float64bits(w.MaxSingularValue(m)); got != want {
			t.Fatalf("matrix %d (%dx%d): reused workspace bits %#x, reference %#x", k, r, c, got, want)
		}
	}
}

// TestCMaxSingularValueAllocs bounds the allocations of one σ_max call by a
// constant that does not grow with power iterations, and requires none once
// a workspace has grown to size.
func TestCMaxSingularValueAllocs(t *testing.T) {
	m := edgeCMatrix(rand.New(rand.NewSource(1)), 12, 12, 0)
	if a := testing.AllocsPerRun(20, func() { CMaxSingularValue(m) }); a > 3 {
		t.Errorf("CMaxSingularValue: %v allocs per call, want <= 3", a)
	}
	var w CMaxSVWork
	w.MaxSingularValue(m)
	if a := testing.AllocsPerRun(20, func() { w.MaxSingularValue(m) }); a != 0 {
		t.Errorf("CMaxSVWork.MaxSingularValue: %v allocs per call on a grown workspace, want 0", a)
	}
}
