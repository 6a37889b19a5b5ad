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

// validationRun deploys sess on the training application app and returns
// the measured E×D (+Inf when the run does not complete) and the firmware
// emergency count.
func (p *Platform) validationRun(sess Session, app string) (exd float64, emergencies int, err error) {
	sch := Scheme{Name: "validation", New: func() (Session, error) { return sess, nil }}
	res, err := Run(p.Cfg, sch, workload.MustLookup(app), RunOptions{MaxTime: 600 * time.Second})
	if err != nil {
		return 0, 0, err
	}
	if !res.Completed {
		return math.Inf(1), res.EmergencyEvents, nil
	}
	return res.ExD, res.EmergencyEvents, nil
}

// validatedSSV runs the full design flow for one layer's SSV controller:
// for each rung of the penalty ladder it certifies spec(penalty), deploys
// the candidate in the session built by session on app (a training
// application, never an evaluation one), and keeps the best-measured design
// among those within the emergency budget (else the last one synthesized).
// It returns the kept controller and the specification it was certified
// against. The controller carries the certified report of robust.Certify:
// no step of the flow reads the refined SSV or the lower bound, so neither
// is computed here (see designEntry.withBracket).
func (p *Platform) validatedSSV(layer string, spec func(penalty float64) *robust.Spec,
	session func(ctl *robust.Controller) (Session, error), app string) (*robust.Controller, *robust.Spec, error) {
	var best, fallback *robust.Controller
	var bestPen, fallbackPen float64
	bestScore := math.Inf(1)
	for _, pen := range validationPenalties {
		ctl, err := robust.Certify(spec(pen))
		if err != nil {
			continue
		}
		fallback, fallbackPen = ctl, pen
		sess, err := session(ctl)
		if err != nil {
			continue
		}
		exd, emg, err := p.validationRun(sess, app)
		if err != nil || emg > maxValidationEmergencies {
			continue
		}
		if exd < bestScore {
			best, bestPen, bestScore = ctl, pen, exd
		}
	}
	if best == nil {
		if fallback == nil {
			return nil, nil, fmt.Errorf("core: %s SSV validated synthesis failed at every penalty", layer)
		}
		best, bestPen = fallback, fallbackPen
	}
	return best, spec(bestPen), nil
}

// SynthesizeHWSSVValidated runs the full design flow for the hardware
// controller. Each candidate runs with its E×D optimizer under the HMP-style
// heuristic scheduler (the placement regime with the steepest plant gains).
// The controller's report is the certified one (see robust.Report).
func (p *Platform) SynthesizeHWSSVValidated(hp HWParams) (*robust.Controller, error) {
	ctl, _, err := p.validatedHW(hp)
	return ctl, err
}

// validatedHW is SynthesizeHWSSVValidated, also returning the kept design's
// specification.
func (p *Platform) validatedHW(hp HWParams) (*robust.Controller, *robust.Spec, error) {
	return p.validatedSSV("HW", func(pen float64) *robust.Spec { return p.hwSpec(hp, pen) },
		func(ctl *robust.Controller) (Session, error) {
			hw, err := p.hwSSVLayer(ctl, nil)
			if err != nil {
				return nil, err
			}
			return &splitSession{hw: hw, os: &heuristic.CoordinatedOS{}}, nil
		}, "swaptions")
}

// SynthesizeOSSSVValidated runs the full design flow for the software
// controller. Each candidate runs in the full two-layer SSV stack with the
// already-validated hardware controller hwCtl. The controller's report is
// the certified one (see robust.Report).
func (p *Platform) SynthesizeOSSSVValidated(op OSParams, hwCtl *robust.Controller) (*robust.Controller, error) {
	ctl, _, err := p.validatedOS(op, hwCtl)
	return ctl, err
}

// validatedOS is SynthesizeOSSSVValidated, also returning the kept design's
// specification.
func (p *Platform) validatedOS(op OSParams, hwCtl *robust.Controller) (*robust.Controller, *robust.Spec, error) {
	return p.validatedSSV("OS", func(pen float64) *robust.Spec { return p.osSpec(op, pen) },
		func(ctl *robust.Controller) (Session, error) {
			hw, err := p.hwSSVLayer(hwCtl, nil)
			if err != nil {
				return nil, err
			}
			os, err := p.osSSVLayer(ctl, nil)
			if err != nil {
				return nil, err
			}
			return &splitSession{hw: hw, os: os}, nil
		}, "vips")
}
