package robust

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"yukta/internal/mat"
)

// eagerSynthesize is the penalty ladder as it ran before candidates were
// scored with the start-point bound: every candidate is scored, compared
// and decided on its refined SystemMu peak.
func eagerSynthesize(spec *Spec) (*Controller, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	tScales := spec.resolveTargetScales()
	var (
		bestCtl *Controller
		iters   int
	)
	rho := spec.MinPenalty
	if rho <= 0 {
		rho = 1.0
	}
	for step := 0; step < 12; step++ {
		iters++
		k, cl, err := ssvDesign(spec, rho, tScales)
		if err != nil {
			rho *= 2
			continue
		}
		cand := ssvCandidate(spec, k, rho, ssvPeak(cl, SystemMu))
		cand.Report.Iterations = iters
		if bestCtl == nil || cand.Report.SSV < bestCtl.Report.SSV {
			bestCtl = cand
		}
		if cand.Report.SSV <= 1 {
			return cand, nil
		}
		rho *= 2
	}
	if bestCtl == nil {
		return nil, fmt.Errorf("%w: no stabilizing candidate found", ErrSynthesis)
	}
	bestCtl.Report.Iterations = iters
	return bestCtl, nil
}

// sameController reports whether a and b have the same realization bits and
// equal reports.
func sameController(a, b *Controller) bool {
	if !reflect.DeepEqual(a.Report, b.Report) {
		return false
	}
	for i, m := range []*mat.Matrix{a.K.A, a.K.B, a.K.C, a.K.D} {
		n := []*mat.Matrix{b.K.A, b.K.B, b.K.C, b.K.D}[i]
		if m.Rows() != n.Rows() || m.Cols() != n.Cols() {
			return false
		}
		for r := 0; r < m.Rows(); r++ {
			for c := 0; c < m.Cols(); c++ {
				if math.Float64bits(m.At(r, c)) != math.Float64bits(n.At(r, c)) {
					return false
				}
			}
		}
	}
	return true
}

// certifySpecs are testSpec at three guardbands, one per ladder branch: at
// 0.4 the start bound certifies the first rung; at 1.0 it exceeds 1 on
// every rung, and the fourth rung is accepted on its refined bound; at 1.2
// no rung certifies and the ladder falls back to its best refined
// candidate.
var certifySpecs = []struct {
	uncertainty float64
	branch      string
}{
	{0.4, "start-accept"},
	{1.0, "refine-accept"},
	{1.2, "no-certificate"},
}

// TestDeferredScoringMatchesEager requires the deferred ladder to give the
// eager one's answer bit for bit: Synthesize the same report and K, and
// Certify followed by FillBracket the same report plus the eager design's
// lower bound. It also checks that each spec exercises its branch.
func TestDeferredScoringMatchesEager(t *testing.T) {
	for _, c := range certifySpecs {
		spec := testSpec()
		spec.Uncertainty = c.uncertainty
		eager, err := eagerSynthesize(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Synthesize(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !sameController(got, eager) {
			t.Errorf("%s: Synthesize report %+v, eager %+v (or K differs)", c.branch, got.Report, eager.Report)
		}

		cert, err := Certify(spec)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := buildClosedLoop(spec, cert.K, spec.resolveTargetScales())
		if err != nil {
			t.Fatal(err)
		}
		start := ssvPeak(cl, SystemMuStart)
		switch c.branch {
		case "start-accept":
			if !(start <= 1) || cert.Report.SSV != start || cert.Report.Iterations != 1 {
				t.Errorf("%s: start bound %v, certified SSV %v after %d candidates", c.branch, start, cert.Report.SSV, cert.Report.Iterations)
			}
		case "refine-accept":
			if !(start > 1) || cert.Report.SSV > 1 || cert.Report.Iterations < 2 {
				t.Errorf("%s: start bound %v, certified SSV %v after %d candidates", c.branch, start, cert.Report.SSV, cert.Report.Iterations)
			}
		case "no-certificate":
			// The best candidate is not the last rung (rho = 2^11), so the
			// comparison of refined values picked it.
			if !(eager.Report.SSV > 1) || eager.Report.ControlPenalty >= 1<<11 {
				t.Errorf("%s: eager SSV %v at rho %v", c.branch, eager.Report.SSV, eager.Report.ControlPenalty)
			}
		}
		if cert.Report.SSV < eager.Report.SSV {
			t.Errorf("%s: certified SSV %v below the refined %v", c.branch, cert.Report.SSV, eager.Report.SSV)
		}
		want := *eager
		if eager.Report.SSV <= 1 {
			lo, err := SystemMuLower(cl, ssvLowerGrid)
			if err != nil {
				t.Fatal(err)
			}
			want.Report.SSVLower = lo
		}
		FillBracket(spec, cert)
		if !sameController(cert, &want) {
			t.Errorf("%s: Certify+FillBracket report %+v, eager with lower bound %+v", c.branch, cert.Report, want.Report)
		}
	}
}
