package yukta_test

// Compile-checked godoc examples for the public API. They carry no Output
// comments, so `go test` compiles but does not execute them (building the
// platform takes tens of seconds); the quickstart example under examples/
// is the runnable version.

import (
	"fmt"
	"log"

	"yukta"
	"yukta/control"
)

// Example shows the end-to-end flow: identification, synthesis, and a
// measured run of the full two-layer Yukta scheme.
func Example() {
	platform, err := yukta.NewDefaultPlatform()
	if err != nil {
		log.Fatal(err)
	}
	scheme := platform.YuktaFullSSV(yukta.DefaultHWParams(), yukta.DefaultOSParams())
	app, _ := yukta.LookupWorkload("blackscholes")
	res, err := yukta.Run(platform.Cfg, scheme, app, yukta.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("E×D = %.0f J·s in %.1f s\n", res.ExD, res.TimeS)
}

// Example_designReport inspects a synthesized controller's robustness
// certificate (the paper's min(s) and guaranteed deviation bounds). The
// validated controller reports the bound it was certified on;
// HWControllerBracket reports the refined bound and the μ lower bound.
func Example_designReport() {
	platform, err := yukta.NewDefaultPlatform()
	if err != nil {
		log.Fatal(err)
	}
	ctl, err := platform.HWControllerValidated(yukta.DefaultHWParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("N=%d, SSV=%.2f, min(s)=%.2f, bounds=%v\n",
		ctl.Report.StateDim, ctl.Report.SSV, ctl.Report.MinS, ctl.Report.GuaranteedBounds)
}

// Example_customLayer designs an SSV controller for a user-defined layer
// with the control package (see examples/customlayer for a complete run).
func Example_customLayer() {
	data := &control.Dataset{} // filled from your layer's recorded signals
	model, err := control.Identify(data, control.PaperOrders, 0.5)
	if err != nil {
		log.Fatal(err)
	}
	model.Stabilize()
	ctl, err := control.Synthesize(&control.Spec{
		Plant:        model.ReducedStateSpace(8),
		NumControls:  1,
		InputWeights: []float64{1},
		InputQuanta:  []float64{0.1},
		OutputBounds: []float64{0.4},
		Uncertainty:  0.4,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ctl.Report.MinS >= 1)
}
