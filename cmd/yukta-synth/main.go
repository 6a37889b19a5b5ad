// Command yukta-synth runs the Yukta design process end to end — system
// identification on the simulated board, SSV controller synthesis for both
// layers, and the Figure 3 validation stage — and prints the design reports
// (SSV value, min(s), guaranteed bounds, controller dimensions).
//
// Usage:
//
//	yukta-synth
//	yukta-synth -guardband 1.5 -perf-bound 0.3 -weight 2
package main

import (
	"flag"
	"fmt"
	"os"

	"yukta"
)

func main() {
	var (
		guardband = flag.Float64("guardband", 0.4, "HW uncertainty guardband (0.4 = ±40%)")
		perfBound = flag.Float64("perf-bound", 0.2, "performance deviation bound (fraction of range)")
		critBound = flag.Float64("crit-bound", 0.1, "power/temperature deviation bound (fraction of range)")
		weight    = flag.Float64("weight", 1, "input weight for all HW inputs")
		orders    = flag.Bool("orders", false, "also run cross-validated model-order selection (§IV-C)")
	)
	flag.Parse()

	fmt.Fprintln(os.Stderr, "running system identification on the simulated board...")
	p, err := yukta.NewDefaultPlatform()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("identified models: HW %d states, OS %d states (order-4 MIMO ARX, reduced)\n",
		p.HW.Order(), p.OS.Order())

	if *orders {
		fmt.Println("\ncross-validated model-order selection (HW signals):")
		scores, best, err := p.SelectHWOrder(6)
		if err != nil {
			fatal(err)
		}
		for _, s := range scores {
			marker := " "
			if s.Orders == best {
				marker = "*"
			}
			fmt.Printf("  %s order %d: validation RMSE %.4f (train %.4f)\n",
				marker, s.Orders.NA, s.ValRMSE, s.TrainRMSE)
		}
		fmt.Printf("  selected order %d; the paper uses order 4 (§IV-C)\n", best.NA)
	}

	hp := yukta.DefaultHWParams()
	hp.Uncertainty = *guardband
	hp.PerfBoundFrac = *perfBound
	hp.CriticalBoundFrac = *critBound
	hp.InputWeight = *weight

	fmt.Fprintln(os.Stderr, "synthesizing + validating the hardware SSV controller...")
	hw, err := p.HWControllerBracket(hp)
	if err != nil {
		fatal(err)
	}
	report("hardware (Table II)", hw)

	fmt.Fprintln(os.Stderr, "synthesizing + validating the software SSV controller...")
	os_, err := p.OSControllerBracket(yukta.DefaultOSParams())
	if err != nil {
		fatal(err)
	}
	report("software (Table III)", os_)
}

func report(name string, c *yukta.Controller) {
	fmt.Printf("\n%s controller\n", name)
	fmt.Printf("  dimensions: N=%d, I=%d, O=%d, E=%d\n",
		c.Report.StateDim, c.NumCtrl, c.NumOut, c.NumExt)
	if c.Report.SSVLower > 0 {
		fmt.Printf("  SSV in [%.3f, %.3f]  (min(s) = %.3f; robust iff min(s) >= 1)\n",
			c.Report.SSVLower, c.Report.SSV, c.Report.MinS)
	} else {
		fmt.Printf("  SSV = %.3f  (min(s) = %.3f; robust iff min(s) >= 1)\n", c.Report.SSV, c.Report.MinS)
	}
	fmt.Printf("  control penalty rho = %g after %d candidate(s)\n",
		c.Report.ControlPenalty, c.Report.Iterations)
	fmt.Printf("  guaranteed output deviation bounds (normalized):")
	for _, b := range c.Report.GuaranteedBounds {
		fmt.Printf(" %.2f", b)
	}
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "yukta-synth:", err)
	os.Exit(1)
}
