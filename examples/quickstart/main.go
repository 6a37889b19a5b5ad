// Quickstart: build the Yukta platform (system identification + SSV
// controller synthesis + validation), run the paper's showcase application
// under the full two-layer Yukta scheme, and compare it against the
// industry-style coordinated heuristic baseline.
package main

import (
	"fmt"
	"log"
	"os"

	"yukta"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("quickstart: ")

	// 1. Build the platform: this runs the §IV-C identification experiments
	//    on the simulated ODROID XU3 and fits the order-4 MIMO models.
	log.Println("identifying the board (training apps with staircase excitation)...")
	platform, err := yukta.NewDefaultPlatform()
	if err != nil {
		log.Fatal(err)
	}

	// 2. Inspect the synthesized hardware controller: the design report
	//    carries the robustness certificate of §II-C, the μ upper bound the
	//    design was accepted on (HWControllerBracket would also refine it
	//    and add the lower bound, at the cost of a few seconds).
	hw, err := platform.HWControllerValidated(yukta.DefaultHWParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hardware SSV controller: N=%d states, certified SSV <= %.2f (min(s) >= %.2f)\n",
		hw.Report.StateDim, hw.Report.SSV, hw.Report.MinS)

	// 3. Run blackscholes under both schemes and compare E×D.
	apps := []string{"blackscholes"}
	schemes := []yukta.Scheme{
		platform.CoordinatedHeuristic(),
		platform.YuktaFullSSV(yukta.DefaultHWParams(), yukta.DefaultOSParams()),
	}
	var baseline float64
	for _, sch := range schemes {
		for _, app := range apps {
			w, err := yukta.LookupWorkload(app)
			if err != nil {
				log.Fatal(err)
			}
			res, err := yukta.Run(platform.Cfg, sch, w, yukta.RunOptions{})
			if err != nil {
				log.Fatal(err)
			}
			if baseline == 0 {
				baseline = res.ExD
			}
			fmt.Printf("%-28s %-13s time=%6.1fs energy=%6.1fJ ExD=%8.0fJ·s (%.2fx baseline)\n",
				sch.Name, app, res.TimeS, res.EnergyJ, res.ExD, res.ExD/baseline)
		}
	}
	os.Exit(0)
}
