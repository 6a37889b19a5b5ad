package control

import (
	"math"
	"math/rand"
	"testing"
)

// identifyToy builds a dataset from a known first-order SISO system with one
// external signal and returns the fitted model.
func identifyToy(t *testing.T) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	d := &Dataset{}
	state := 0.0
	for i := 0; i < 500; i++ {
		u := rng.Float64()*2 - 1
		e := rng.Float64()*2 - 1
		state = 0.6*state + 0.3*u + 0.1*e
		d.Append([]float64{u, e}, []float64{state})
	}
	m, err := Identify(d, PaperOrders, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	m.Stabilize()
	return m
}

func TestPublicDesignFlow(t *testing.T) {
	m := identifyToy(t)
	ctl, err := Synthesize(&Spec{
		Plant:        m.ReducedStateSpace(6),
		NumControls:  1,
		InputWeights: []float64{1},
		InputQuanta:  []float64{0.1},
		OutputBounds: []float64{0.3},
		Uncertainty:  0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Report.SSV > 1 {
		t.Fatalf("SSV %.2f > 1 on an easy SISO plant", ctl.Report.SSV)
	}
	// A certified design reports the μ bracket [SSVLower, SSV].
	if lo := ctl.Report.SSVLower; lo <= 0 || lo > ctl.Report.SSV*(1+1e-9) {
		t.Fatalf("SSVLower %v outside (0, SSV = %v]", lo, ctl.Report.SSV)
	}
	rt, err := NewRuntime(RuntimeConfig{
		Controller:     ctl,
		OutputScales:   []Scaling{{Min: -2, Max: 2}},
		ExternalScales: []Scaling{{Min: -1, Max: 1}},
		InputScales:    []Scaling{{Min: -1, Max: 1}},
		InputLevels:    [][]float64{Levels(-1, 1, 0.1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.SetTargets([]float64{0.5}); err != nil {
		t.Fatal(err)
	}
	// Close the loop on the true plant: output must approach the target.
	state := 0.0
	u, e := 0.0, 0.0
	for i := 0; i < 200; i++ {
		state = 0.6*state + 0.3*u + 0.1*e
		cmd, err := rt.Step([]float64{state * 2}, []float64{e}, []float64{u})
		if err != nil {
			t.Fatal(err)
		}
		u = cmd[0]
	}
	// Physical output = state*2, target 0.5 → state target 0.25.
	if math.Abs(state*2-0.5) > 0.12 {
		t.Fatalf("closed loop settled at %.3f, want near 0.5", state*2)
	}
}

func TestPublicLQGFlow(t *testing.T) {
	m := identifyToy(t)
	ctl, err := SynthesizeLQG(&Spec{
		Plant:        m.ReducedStateSpace(6),
		NumControls:  1,
		InputWeights: []float64{1},
		InputQuanta:  []float64{0.1},
		OutputBounds: []float64{0.3},
		Uncertainty:  0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(ctl.Report.SSV) {
		t.Fatal("LQG must not carry an SSV certificate")
	}
}

func TestNewStateSpaceHelper(t *testing.T) {
	ss, err := NewStateSpace(1, 1, 1,
		[]float64{0.5}, []float64{1}, []float64{1}, []float64{0}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !ss.IsStable() || ss.Order() != 1 {
		t.Fatalf("helper built wrong system: order %d", ss.Order())
	}
	if _, err := NewStateSpace(2, 1, 1,
		[]float64{0.5}, []float64{1}, []float64{1}, []float64{0}, 0.5); err == nil {
		t.Fatal("expected dimension error")
	}
}

func TestLevelsHelper(t *testing.T) {
	if got := Levels(1, 4, 1); len(got) != 4 {
		t.Fatalf("Levels(1,4,1) = %v", got)
	}
}
