package robust

import (
	"math"
	"testing"

	"yukta/internal/lti"
	"yukta/internal/mat"
)

// testPlant returns a stable 2-input/1-external/2-output coupled plant used
// across the synthesis tests (normalized units, Ts = 0.5 s).
func testPlant() *lti.StateSpace {
	a := mat.FromRows([][]float64{
		{0.70, 0.10, 0, 0},
		{0.05, 0.60, 0.1, 0},
		{0, 0.1, 0.5, 0.05},
		{0, 0, 0.05, 0.40},
	})
	// Inputs: u0, u1 (controls), e0 (external signal).
	b := mat.FromRows([][]float64{
		{0.5, 0.1, 0.05},
		{0.1, 0.4, 0.02},
		{0.2, 0.2, 0.1},
		{0.05, 0.3, 0.02},
	})
	c := mat.FromRows([][]float64{
		{1, 0.2, 0.1, 0},
		{0.1, 0.9, 0, 0.2},
	})
	d := mat.Zeros(2, 3)
	return lti.MustStateSpace(a, b, c, d, 0.5)
}

func testSpec() *Spec {
	return &Spec{
		Plant:        testPlant(),
		NumControls:  2,
		InputWeights: []float64{1, 1},
		InputQuanta:  []float64{0.05, 0.05},
		OutputBounds: []float64{0.2, 0.2},
		Uncertainty:  0.4,
	}
}

func TestSynthesizeProducesRobustController(t *testing.T) {
	ctl, err := Synthesize(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Report.SSV > 1 {
		t.Fatalf("SSV = %v, want <= 1", ctl.Report.SSV)
	}
	if ctl.Report.MinS < 1 {
		t.Fatalf("min(s) = %v, want >= 1", ctl.Report.MinS)
	}
	if ctl.NumCtrl != 2 || ctl.NumOut != 2 || ctl.NumExt != 1 {
		t.Fatalf("controller shape wrong: %+v", ctl)
	}
	// Controller state dimension: plant order + one integrator per output.
	if ctl.Report.StateDim != 6 {
		t.Fatalf("state dim = %d, want 6", ctl.Report.StateDim)
	}
}

func TestSynthesizedClosedLoopStable(t *testing.T) {
	spec := testSpec()
	ctl, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Close the loop against the nominal plant (Δy feedback only, e = 0) and
	// check internal stability via the LFT used for analysis.
	cl, err := buildClosedLoop(spec, ctl.K, spec.resolveTargetScales())
	if err != nil {
		t.Fatal(err)
	}
	if ssv := ssvPeak(cl, SystemMu); ssv >= 1e6 {
		t.Fatal("closed loop flagged unstable by ssvPeak")
	}
}

func TestSynthesizedControllerTracksTargets(t *testing.T) {
	spec := testSpec()
	ctl, err := Synthesize(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !ctl.UFeedback {
		t.Fatal("SSV realization should be self-conditioned")
	}
	// Simulate the true plant under the controller with a constant target
	// and verify the outputs converge close to the target (the leaky
	// integrators trade exact tracking for bounded inputs when targets are
	// infeasible; for this feasible target the residual is small).
	g := spec.Plant
	target := []float64{0.3, -0.2}
	xp := make([]float64, g.Order())
	xk := make([]float64, ctl.K.Order())
	var y []float64
	u := make([]float64, 3) // 2 controls + 1 external (held at 0)
	for step := 0; step < 400; step++ {
		// Plant output.
		y = g.C.MulVec(xp)
		du := g.D.MulVec(u)
		for i := range y {
			y[i] += du[i]
		}
		// Controller input: deviations, external signals, then the applied
		// command (the self-conditioning channel, fed the computed command
		// since nothing saturates in this scenario).
		dy := []float64{y[0] - target[0], y[1] - target[1], 0, 0, 0}
		uk := ctl.K.C.MulVec(xk)
		dk := ctl.K.D.MulVec(dy)
		for i := range uk {
			uk[i] += dk[i]
		}
		copy(u[:2], uk)
		copy(dy[3:], uk)
		// Advance controller and plant.
		ak := ctl.K.A.MulVec(xk)
		bk := ctl.K.B.MulVec(dy)
		for i := range ak {
			xk[i] = ak[i] + bk[i]
		}
		ap := g.A.MulVec(xp)
		bp := g.B.MulVec(u)
		for i := range ap {
			xp[i] = ap[i] + bp[i]
		}
	}
	for i, tv := range target {
		if math.Abs(y[i]-tv) > 0.06 {
			t.Fatalf("output %d settled at %v, want near %v", i, y[i], tv)
		}
	}
}

func TestGuaranteedBoundsGrowWithGuardband(t *testing.T) {
	// Paper Fig. 16(a): guaranteed deviation bounds grow slowly as the
	// uncertainty guardband increases.
	var prev float64
	for _, unc := range []float64{0.4, 1.0, 2.5} {
		spec := testSpec()
		spec.Uncertainty = unc
		ctl, err := Synthesize(spec)
		if err != nil {
			t.Fatalf("uncertainty %v: %v", unc, err)
		}
		gb := ctl.Report.GuaranteedBounds[0]
		if gb < spec.OutputBounds[0]-1e-12 {
			t.Fatalf("guaranteed bound %v below requested %v", gb, spec.OutputBounds[0])
		}
		if gb+1e-9 < prev {
			t.Fatalf("guaranteed bounds not monotone: %v after %v at unc=%v", gb, prev, unc)
		}
		prev = gb
	}
}

func TestHigherRhoForLargerGuardband(t *testing.T) {
	// More uncertainty should never yield a more aggressive controller.
	specLo := testSpec()
	ctlLo, err := Synthesize(specLo)
	if err != nil {
		t.Fatal(err)
	}
	specHi := testSpec()
	specHi.Uncertainty = 3.0
	ctlHi, err := Synthesize(specHi)
	if err != nil {
		t.Fatal(err)
	}
	if ctlHi.Report.ControlPenalty < ctlLo.Report.ControlPenalty {
		t.Fatalf("penalty with 300%% guardband (%v) below 40%% guardband (%v)",
			ctlHi.Report.ControlPenalty, ctlLo.Report.ControlPenalty)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []func(*Spec){
		func(s *Spec) { s.Plant = nil },
		func(s *Spec) { s.NumControls = 0 },
		func(s *Spec) { s.NumControls = 5 },
		func(s *Spec) { s.InputWeights = []float64{1} },
		func(s *Spec) { s.InputWeights = []float64{1, -1} },
		func(s *Spec) { s.InputQuanta = []float64{0.1} },
		func(s *Spec) { s.OutputBounds = []float64{0.1} },
		func(s *Spec) { s.OutputBounds = []float64{0.1, 0} },
		func(s *Spec) { s.Uncertainty = -0.1 },
	}
	for i, mutate := range cases {
		s := testSpec()
		mutate(s)
		if _, err := Synthesize(s); err == nil {
			t.Fatalf("case %d: expected validation error", i)
		}
	}
}
