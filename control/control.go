// Package control is the public face of Yukta's controller-design toolkit
// for building controllers for layers beyond the bundled big.LITTLE
// hardware/OS pair (the paper's §III-D multi-layer vision: a network layer,
// a storage layer, an application layer...).
//
// The workflow mirrors the paper's Figure 3:
//
//  1. describe your layer's signals: inputs with weights and discrete
//     levels, outputs with deviation bounds, external signals from the
//     neighboring layers;
//  2. identify an order-4 MIMO model from recorded input/output data
//     (Identify);
//  3. synthesize an SSV controller against an uncertainty guardband
//     (Synthesize) and read its robustness report;
//  4. run it as the small state machine of §VI-D (NewRuntime).
package control

import (
	"fmt"

	"yukta/internal/lti"
	"yukta/internal/mat"
	"yukta/internal/robust"
	"yukta/internal/ssvctl"
	"yukta/internal/sysid"
)

// Re-exported designer-facing types.
type (
	// Spec is the designer's description of one layer's controller
	// (inputs, weights, quantization, output bounds, guardband).
	Spec = robust.Spec
	// Controller is a synthesized controller plus its robustness report.
	Controller = robust.Controller
	// Report summarizes a synthesis run (SSV, min(s), guaranteed bounds).
	Report = robust.Report
	// StateSpace is a discrete-time LTI model.
	StateSpace = lti.StateSpace
	// Dataset is recorded input/output identification data.
	Dataset = sysid.Dataset
	// Model is a fitted MIMO ARX model.
	Model = sysid.Model
	// Orders selects the ARX structure (the paper uses order 4).
	Orders = sysid.Orders
	// Scaling maps a physical signal range onto normalized units.
	Scaling = sysid.Scaling
	// Runtime executes a synthesized controller against physical signals.
	Runtime = ssvctl.Runtime
	// RuntimeConfig wires a controller to its physical signals.
	RuntimeConfig = ssvctl.Config
)

// PaperOrders is the order-4 model structure of §IV-C.
var PaperOrders = sysid.PaperOrders

// Identify fits a MIMO ARX model to recorded data (§IV-C).
func Identify(d *Dataset, ord Orders, ts float64) (*Model, error) {
	return sysid.Identify(d, ord, ts)
}

// Synthesize runs the SSV design loop of §II-C: propose candidates, evaluate
// the closed loop's structured singular value against the declared
// uncertainty, bounds and weights, and return the most aggressive certified
// candidate. A certified design (SSV <= 1) reports the full μ bracket: the
// refined upper bound in Report.SSV and the lower bound in Report.SSVLower.
func Synthesize(spec *Spec) (*Controller, error) {
	ctl, err := robust.Certify(spec)
	if err != nil {
		return nil, err
	}
	robust.FillBracket(spec, ctl)
	return ctl, nil
}

// SynthesizeLQG builds the §VI-B LQG baseline from the same specification
// (bounds act only as inverse output weights; no robustness certificate).
func SynthesizeLQG(spec *Spec) (*Controller, error) { return robust.SynthesizeLQG(spec) }

// NewRuntime wraps a synthesized controller in the runtime state machine
// with scaling, quantization, anti-windup and the guardband monitor.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) { return ssvctl.New(cfg) }

// Levels builds an evenly spaced actuator level set.
func Levels(lo, hi, step float64) []float64 { return ssvctl.Levels(lo, hi, step) }

// NewStateSpace builds a discrete-time LTI model from its matrices given in
// row-major order (A is n×n, B n×m, C p×n, D p×m).
func NewStateSpace(n, m, p int, a, b, c, d []float64, ts float64) (ss *StateSpace, err error) {
	defer func() {
		if r := recover(); r != nil {
			ss, err = nil, fmt.Errorf("control: %v", r)
		}
	}()
	return lti.NewStateSpace(
		matNew(n, n, a), matNew(n, m, b), matNew(p, n, c), matNew(p, m, d), ts)
}

// matNew adapts a row-major slice into the internal matrix type.
func matNew(r, c int, data []float64) *mat.Matrix {
	return mat.New(r, c, append([]float64(nil), data...))
}
