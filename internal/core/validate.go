package core

import (
	"fmt"
	"math"
	"time"

	"yukta/internal/heuristic"
	"yukta/internal/robust"
	"yukta/internal/workload"
)

// This file implements the "Validate" stage of the Yukta design process
// (paper Figure 3). A synthesized controller carries a robustness
// certificate against the *declared* uncertainty; validation exercises it on
// the real system (here: the simulated board) before deployment, using only
// training applications. Because the μ certificate admits a range of
// aggressiveness levels, the stage evaluates the candidate ladder end to end
// — each candidate runs with its optimizer in the deployment pairing — and
// keeps the design with the best measured E×D among those that do not fight
// the firmware. This mirrors how the paper's designers picked their final
// parameters "based on a combination of suggestions from theory, system
// insight, and actual experimentation" (§II-B).

// validationPenalties bounds the redesign ladder.
var validationPenalties = []float64{1, 2, 4, 8, 16}

// maxValidationEmergencies is the firmware-intervention budget during a
// validation run.
const maxValidationEmergencies = 4

// hwValidationScore deploys the candidate hardware controller with its E×D
// optimizer under the HMP-style heuristic scheduler (the placement regime
// with the steepest plant gains) on a training application, and returns the
// measured E×D and the firmware emergency count.
func (p *Platform) hwValidationScore(ctl *robust.Controller) (exd float64, emergencies int, err error) {
	rt, err := p.NewHWRuntime(ctl)
	if err != nil {
		return 0, 0, err
	}
	opt, err := p.hwOptimizer()
	if err != nil {
		return 0, 0, err
	}
	hw := &hwSSVSession{rt: rt, opt: opt, base: p.Cfg.BasePowerW}
	sch := Scheme{Name: "validation", New: func() (Session, error) {
		return &splitSession{hw: hw, os: &heurOSAdapter{os: &heuristic.CoordinatedOS{}}}, nil
	}}
	w := workload.MustLookup("swaptions") // training set only
	res, err := Run(p.Cfg, sch, w, RunOptions{MaxTime: 600 * time.Second})
	if err != nil {
		return 0, 0, err
	}
	if !res.Completed {
		return math.Inf(1), res.EmergencyEvents, nil
	}
	return res.ExD, res.EmergencyEvents, nil
}

// SynthesizeHWSSVValidated runs the full design flow for the hardware
// controller: synthesize candidates along the penalty ladder, validate each
// on the (simulated) board, and keep the best-measured design, whose report
// then gets its SSV lower bound.
func (p *Platform) SynthesizeHWSSVValidated(hp HWParams) (*robust.Controller, error) {
	var best, fallback *robust.Controller
	var bestPen, fallbackPen float64
	bestScore := math.Inf(1)
	for _, pen := range validationPenalties {
		ctl, err := p.synthesizeHWSSVAt(hp, pen)
		if err != nil {
			continue
		}
		fallback, fallbackPen = ctl, pen
		exd, emg, err := p.hwValidationScore(ctl)
		if err != nil {
			continue
		}
		if emg > maxValidationEmergencies {
			continue
		}
		if exd < bestScore {
			best, bestPen, bestScore = ctl, pen, exd
		}
	}
	if best == nil {
		if fallback == nil {
			return nil, fmt.Errorf("core: HW SSV validated synthesis failed at every penalty")
		}
		best, bestPen = fallback, fallbackPen
	}
	// The reported lower bound is swept once, for the design that is kept.
	robust.FillSSVLower(p.hwSpec(hp, bestPen), best)
	return best, nil
}

// osValidationScore deploys the candidate software controller in the full
// two-layer SSV stack (with the already-validated hardware controller) on a
// training application and returns measured E×D and emergencies.
func (p *Platform) osValidationScore(ctl, hwCtl *robust.Controller) (exd float64, emergencies int, err error) {
	hwRT, err := p.NewHWRuntime(hwCtl)
	if err != nil {
		return 0, 0, err
	}
	hwOpt, err := p.hwOptimizer()
	if err != nil {
		return 0, 0, err
	}
	osRT, err := p.NewOSRuntime(ctl)
	if err != nil {
		return 0, 0, err
	}
	osOpt, err := p.osOptimizer()
	if err != nil {
		return 0, 0, err
	}
	sch := Scheme{Name: "validation", New: func() (Session, error) {
		return &splitSession{
			hw: &hwSSVSession{rt: hwRT, opt: hwOpt, base: p.Cfg.BasePowerW},
			os: &osSSVSession{rt: osRT, opt: osOpt, base: p.Cfg.BasePowerW},
		}, nil
	}}
	w := workload.MustLookup("vips") // training set only
	res, err := Run(p.Cfg, sch, w, RunOptions{MaxTime: 600 * time.Second})
	if err != nil {
		return 0, 0, err
	}
	if !res.Completed {
		return math.Inf(1), res.EmergencyEvents, nil
	}
	return res.ExD, res.EmergencyEvents, nil
}

// SynthesizeOSSSVValidated runs the full design flow for the software
// controller against an already-validated hardware controller; as for the
// hardware controller, only the design it keeps gets its SSV lower bound.
func (p *Platform) SynthesizeOSSSVValidated(op OSParams, hwCtl *robust.Controller) (*robust.Controller, error) {
	var best, fallback *robust.Controller
	var bestPen, fallbackPen float64
	bestScore := math.Inf(1)
	for _, pen := range validationPenalties {
		ctl, err := p.synthesizeOSSSVAt(op, pen)
		if err != nil {
			continue
		}
		fallback, fallbackPen = ctl, pen
		exd, emg, err := p.osValidationScore(ctl, hwCtl)
		if err != nil {
			continue
		}
		if emg > maxValidationEmergencies {
			continue
		}
		if exd < bestScore {
			best, bestPen, bestScore = ctl, pen, exd
		}
	}
	if best == nil {
		if fallback == nil {
			return nil, fmt.Errorf("core: OS SSV validated synthesis failed at every penalty")
		}
		best, bestPen = fallback, fallbackPen
	}
	// The reported lower bound is swept once, for the design that is kept.
	robust.FillSSVLower(p.osSpec(op, bestPen), best)
	return best, nil
}
