package core

import (
	"fmt"
	"sync"

	"yukta/internal/board"
	"yukta/internal/heuristic"
	"yukta/internal/lqgctl"
	"yukta/internal/lti"
	"yukta/internal/obs"
	"yukta/internal/robust"
	"yukta/internal/ssvctl"
)

// Platform bundles everything derived from one identification campaign on
// one board configuration: the training data, the fitted models for every
// controller variant, and the signal scalings. Experiments construct it once
// and synthesize controllers from it.
type Platform struct {
	Cfg  board.Config
	Lim  heuristic.Limits
	Data *TrainingData

	HW, OS, HWOnly, OSOnly, Mono *lti.StateSpace

	// Cache of designed controllers: certification plus validation of the
	// HW and OS SSV designs takes a fraction of a second (a 0.19 s median on
	// a 2-CPU x86 host; their μ brackets, filled only on demand, take about
	// 3 s more), and experiment sweeps reuse the same designs across many
	// runs.
	// The keys are HWParams, OSParams and one lqgKey per LQG baseline. Each
	// key holds a single-flight entry so that concurrent callers (the
	// experiment harness fans runs across a worker pool) design it exactly
	// once and never serialize behind an unrelated key's synthesis — the
	// mutex protects only the entry lookup.
	mu      sync.Mutex
	designs map[any]*designEntry

	// metrics, when attached, counts controller-cache hits and misses
	// (synth_cache_hits_total / synth_cache_misses_total).
	metrics *obs.Registry
}

// AttachMetrics registers the registry the platform's controller caches
// count their hits and misses into (nil detaches). Safe to call
// concurrently with cache lookups, but conventionally done once right after
// NewPlatform.
func (p *Platform) AttachMetrics(r *obs.Registry) {
	p.mu.Lock()
	p.metrics = r
	p.mu.Unlock()
}

// lqgKey is the cache key of a parameterless LQG baseline design.
type lqgKey int

const (
	monoLQGKey lqgKey = iota
	decoupLQGKey
)

// designEntry is a single-flight cache slot for one design: one controller
// in ctl, or for the decoupled LQG baseline the hardware and software pair
// in ctl and os. For a validated SSV design, spec is the specification ctl
// was certified against, and bracket memoizes ctl's report with the μ
// bracket filled, computed once, the first time a reader asks.
type designEntry struct {
	once    sync.Once
	ctl, os *robust.Controller
	err     error

	spec        *robust.Spec
	bracketOnce sync.Once
	bracket     robust.Report
}

// fillBracket fills the μ bracket of a report (robust.FillBracket); tests
// replace it to count the fills.
var fillBracket = robust.FillBracket

// withBracket returns a copy of the validated SSV controller whose report
// has the μ bracket filled, computing the bracket on the first call. It
// never writes e.ctl, which running sessions share; the copy shares only
// the read-only realization K.
func (e *designEntry) withBracket() (*robust.Controller, error) {
	if e.err != nil {
		return nil, e.err
	}
	e.bracketOnce.Do(func() {
		c := *e.ctl // fillBracket replaces the copy's GuaranteedBounds slice
		fillBracket(e.spec, &c)
		e.bracket = c.Report
	})
	c := *e.ctl
	c.Report = e.bracket
	c.Report.GuaranteedBounds = append([]float64(nil), e.bracket.GuaranteedBounds...)
	return &c, nil
}

// design returns the cache entry for key, running build on it the first
// time any caller asks (concurrent callers share that one run). Every call
// counts one cache access: the first for a key is the miss.
func (p *Platform) design(key any, build func(e *designEntry)) *designEntry {
	p.mu.Lock()
	if p.designs == nil {
		p.designs = make(map[any]*designEntry)
	}
	e, hit := p.designs[key]
	if !hit {
		e = &designEntry{}
		p.designs[key] = e
	}
	m := p.metrics
	p.mu.Unlock()
	if m != nil {
		name := "synth_cache_misses_total"
		if hit {
			name = "synth_cache_hits_total"
		}
		m.Counter(name).Add(1)
	}
	e.once.Do(func() { build(e) })
	return e
}

// NewPlatform collects training data on the given board configuration and
// fits the four models used by the schemes.
func NewPlatform(cfg board.Config, opt IdentifyOptions) (*Platform, error) {
	td, err := CollectTrainingData(cfg, opt)
	if err != nil {
		return nil, err
	}
	p := &Platform{Cfg: cfg, Lim: heuristic.DefaultLimits(), Data: td}
	if p.HW, err = td.HWModel(); err != nil {
		return nil, err
	}
	if p.OS, err = td.OSModel(); err != nil {
		return nil, err
	}
	if p.HWOnly, err = td.HWOnlyModel(); err != nil {
		return nil, err
	}
	if p.OSOnly, err = td.OSOnlyModel(); err != nil {
		return nil, err
	}
	if p.Mono, err = td.MonoModel(); err != nil {
		return nil, err
	}
	return p, nil
}

// HWParams are the designer knobs of the hardware controller (Table II),
// exposed for the sensitivity studies of §VI-E.
type HWParams struct {
	// PerfBoundFrac is the performance deviation bound as a fraction of the
	// signal range (paper default ±20%).
	PerfBoundFrac float64
	// CriticalBoundFrac is the bound for the board-integrity outputs —
	// cluster powers and temperature (paper default ±10%).
	CriticalBoundFrac float64
	// Uncertainty is the guardband (paper default ±40%).
	Uncertainty float64
	// InputWeight applies to all four inputs (paper default 1; §VI-E3 sweeps
	// 0.5–2).
	InputWeight float64
}

// DefaultHWParams returns Table II's values.
func DefaultHWParams() HWParams {
	return HWParams{PerfBoundFrac: 0.2, CriticalBoundFrac: 0.1, Uncertainty: 0.4, InputWeight: 1}
}

// OSParams are the designer knobs of the software controller (Table III).
type OSParams struct {
	// BoundFrac is the deviation bound for all three outputs (paper ±20%).
	BoundFrac float64
	// Uncertainty is the guardband (paper ±50%).
	Uncertainty float64
	// InputWeight applies to all three inputs (paper 2 — twice the HW
	// controller's, §IV-B).
	InputWeight float64
}

// DefaultOSParams returns Table III's values.
func DefaultOSParams() OSParams {
	return OSParams{BoundFrac: 0.2, Uncertainty: 0.5, InputWeight: 2}
}

// fracToNorm converts "fraction of the physical range" to normalized units
// (the normalized range [-1,1] spans 2 units).
func fracToNorm(frac float64) float64 { return 2 * frac }

// quantaFor returns the normalized quantization step of the given input
// columns.
func (p *Platform) quantaFor(cols []int) []float64 {
	scales := inputScales(p.Cfg)
	levels := inputLevels(p.Cfg)
	out := make([]float64, len(cols))
	for i, c := range cols {
		step := 0.0
		if len(levels[c]) > 1 {
			step = levels[c][1] - levels[c][0]
		}
		out[i] = scales[c].QuantumNormalized(step)
	}
	return out
}

// SynthesizeHWSSV runs the SSV design loop for the hardware controller of
// Table II with the given designer knobs (without the Fig. 3 validation
// stage; see SynthesizeHWSSVValidated). Its report holds the refined SSV
// and leaves SSVLower at 0 (robust.Report's eager path).
func (p *Platform) SynthesizeHWSSV(hp HWParams) (*robust.Controller, error) {
	return robust.Synthesize(p.hwSpec(hp, 0))
}

// DesignHWAtPenalty synthesizes a single hardware-controller candidate at a
// fixed penalty and reports its SSV (for the Fig. 16a sensitivity study).
func (p *Platform) DesignHWAtPenalty(hp HWParams, rho float64) (*robust.Controller, error) {
	return robust.DesignAtPenalty(p.hwSpec(hp, 0), rho)
}

// hwSpec builds the Table II specification.
func (p *Platform) hwSpec(hp HWParams, minPenalty float64) *robust.Spec {
	return &robust.Spec{
		Plant:       p.HW,
		NumControls: 4,
		InputWeights: []float64{
			hp.InputWeight, hp.InputWeight, hp.InputWeight, hp.InputWeight,
		},
		InputQuanta: p.quantaFor(hwInCols[:4]),
		OutputBounds: []float64{
			fracToNorm(hp.PerfBoundFrac),     // performance ±20%
			fracToNorm(hp.CriticalBoundFrac), // power big ±10%
			fracToNorm(hp.CriticalBoundFrac), // power little ±10%
			fracToNorm(hp.CriticalBoundFrac), // temperature ±10%
		},
		Uncertainty: hp.Uncertainty,
		// Reference magnitudes match the optimizer: performance and power
		// targets move in small steps, the temperature target is fixed.
		TargetScales: []float64{0.15, 0.12, 0.12, 0.02},
		MinPenalty:   minPenalty,
	}
}

// SynthesizeOSSSV runs the SSV design loop for the software controller of
// Table III (without the Fig. 3 validation stage). Like SynthesizeHWSSV, it
// reports the refined SSV and leaves SSVLower at 0.
func (p *Platform) SynthesizeOSSSV(op OSParams) (*robust.Controller, error) {
	return robust.Synthesize(p.osSpec(op, 0))
}

// osSpec builds the Table III specification.
func (p *Platform) osSpec(op OSParams, minPenalty float64) *robust.Spec {
	return &robust.Spec{
		Plant:        p.OS,
		NumControls:  3,
		InputWeights: []float64{op.InputWeight, op.InputWeight, op.InputWeight},
		InputQuanta:  p.quantaFor(osInCols[:3]),
		OutputBounds: []float64{
			fracToNorm(op.BoundFrac), fracToNorm(op.BoundFrac), fracToNorm(op.BoundFrac),
		},
		Uncertainty:  op.Uncertainty,
		TargetScales: []float64{0.1, 0.15, 0.1},
		MinPenalty:   minPenalty,
	}
}

// HWControllerValidated returns the cached validated hardware controller
// for the given knobs, designing it on first use. Concurrent callers with
// the same knobs share one synthesis (single-flight); callers with different
// knobs synthesize in parallel. The controller's report is the certified
// one (robust.Report): SSV is the bound the design was accepted on (<= 1),
// GuaranteedBounds the requested bounds, and SSVLower 0;
// HWControllerBracket reports the refined SSV and the lower bound.
func (p *Platform) HWControllerValidated(hp HWParams) (*robust.Controller, error) {
	e := p.hwEntry(hp)
	return e.ctl, e.err
}

// HWControllerBracket returns a copy of the validated hardware controller
// for the given knobs whose report has its μ bracket filled
// (robust.FillBracket): SSV and MinS hold the refined bound and SSVLower
// the lower bound. The bracket is computed once per design, on the first
// call; the controller HWControllerValidated returns is not modified.
func (p *Platform) HWControllerBracket(hp HWParams) (*robust.Controller, error) {
	return p.hwEntry(hp).withBracket()
}

// hwEntry returns the cache entry of the validated hardware design.
func (p *Platform) hwEntry(hp HWParams) *designEntry {
	return p.design(hp, func(e *designEntry) { e.ctl, e.spec, e.err = p.validatedHW(hp) })
}

// OSControllerValidated returns the cached validated software controller for
// the given knobs, designing it on first use (validated against the default
// hardware controller). Single-flight per knob set, as for the hardware
// cache. Its report is the certified one, as for HWControllerValidated;
// OSControllerBracket reports the bracket.
func (p *Platform) OSControllerValidated(op OSParams) (*robust.Controller, error) {
	e, err := p.osEntry(op)
	if err != nil {
		return nil, err
	}
	return e.ctl, e.err
}

// OSControllerBracket is HWControllerBracket for the validated software
// controller.
func (p *Platform) OSControllerBracket(op OSParams) (*robust.Controller, error) {
	e, err := p.osEntry(op)
	if err != nil {
		return nil, err
	}
	return e.withBracket()
}

// osEntry returns the cache entry of the validated software design, after
// the default hardware design it is validated against.
func (p *Platform) osEntry(op OSParams) (*designEntry, error) {
	hwCtl, err := p.HWControllerValidated(DefaultHWParams())
	if err != nil {
		return nil, err
	}
	return p.design(op, func(e *designEntry) { e.ctl, e.spec, e.err = p.validatedOS(op, hwCtl) }), nil
}

// MonolithicLQGController returns the cached §VI-B monolithic LQG design,
// synthesizing it on first use (single-flight).
func (p *Platform) MonolithicLQGController() (*robust.Controller, error) {
	e := p.design(monoLQGKey, func(e *designEntry) { e.ctl, e.err = p.SynthesizeMonolithicLQG() })
	return e.ctl, e.err
}

// DecoupledLQGControllers returns the cached §VI-B decoupled LQG pair,
// synthesizing it on first use (single-flight).
func (p *Platform) DecoupledLQGControllers() (hw, os *robust.Controller, err error) {
	e := p.design(decoupLQGKey, func(e *designEntry) { e.ctl, e.os, e.err = p.SynthesizeDecoupledLQG() })
	return e.ctl, e.os, e.err
}

// NewHWRuntime wires a synthesized hardware controller to the board signals.
// It hotplugs one core and moves at most two DVFS steps per interval.
func (p *Platform) NewHWRuntime(ctl *robust.Controller) (*ssvctl.Runtime, error) {
	return p.newSSVRuntime(ctl, hwInCols, hwOutCols, []int{1, 1, 2, 2})
}

// NewOSRuntime wires a synthesized software controller to the board signals.
// It migrates at most two threads and shifts packing one level per interval.
func (p *Platform) NewOSRuntime(ctl *robust.Controller) (*ssvctl.Runtime, error) {
	return p.newSSVRuntime(ctl, osInCols, osOutCols, []int{2, 1, 1})
}

// newSSVRuntime wires an SSV controller to board signals given its column
// sets; slew holds one per-interval level limit per control input, and the
// input columns after the controls are the external signals.
func (p *Platform) newSSVRuntime(ctl *robust.Controller, inCols, outCols, slew []int) (*ssvctl.Runtime, error) {
	nu := len(slew)
	return ssvctl.New(ssvctl.Config{
		Controller:     ctl,
		OutputScales:   scalesFor(p.Data.OutScales, outCols),
		ExternalScales: scalesFor(inputScales(p.Cfg), inCols[nu:]),
		InputScales:    scalesFor(inputScales(p.Cfg), inCols[:nu]),
		InputLevels:    levelsFor(inputLevels(p.Cfg), inCols[:nu]),
		SlewLevels:     slew,
	})
}

// SynthesizeMonolithicLQG builds the single LQG controller that manages both
// layers (§VI-B, the use in [35]): all seven actuators are controls and all
// seven observable signals are outputs.
func (p *Platform) SynthesizeMonolithicLQG() (*robust.Controller, error) {
	weights := make([]float64, numInputs)
	for i := range weights {
		weights[i] = 1
	}
	return robust.SynthesizeLQG(&robust.Spec{
		Plant:        p.Mono, // 7 inputs → 7 outputs
		NumControls:  numInputs,
		InputWeights: weights,
		InputQuanta:  p.quantaFor(hwInCols),
		OutputBounds: []float64{
			fracToNorm(0.2), fracToNorm(0.1), fracToNorm(0.1), fracToNorm(0.1),
			fracToNorm(0.2), fracToNorm(0.2), fracToNorm(0.2),
		},
		Uncertainty: 0.4,
	})
}

// SynthesizeDecoupledLQG builds the two independent LQG controllers (no
// external signals) of the Decoupled HW LQG + OS LQG scheme.
func (p *Platform) SynthesizeDecoupledLQG() (hw, os *robust.Controller, err error) {
	hw, err = robust.SynthesizeLQG(&robust.Spec{
		Plant:        p.HWOnly,
		NumControls:  4,
		InputWeights: []float64{1, 1, 1, 1},
		InputQuanta:  p.quantaFor(hwOnlyInCols),
		OutputBounds: []float64{
			fracToNorm(0.2), fracToNorm(0.1), fracToNorm(0.1), fracToNorm(0.1),
		},
		Uncertainty: 0.4,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: decoupled HW LQG: %w", err)
	}
	os, err = robust.SynthesizeLQG(&robust.Spec{
		Plant:        p.OSOnly,
		NumControls:  3,
		InputWeights: []float64{2, 2, 2},
		InputQuanta:  p.quantaFor(osOnlyInCols),
		OutputBounds: []float64{fracToNorm(0.2), fracToNorm(0.2), fracToNorm(0.2)},
		Uncertainty:  0.5,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("core: decoupled OS LQG: %w", err)
	}
	return hw, os, nil
}

// NewDecoupledHWLQGRuntime wires the decoupled hardware LQG controller (no
// external signals) to the board signals — exposed for the §VI-B
// convergence experiment.
func (p *Platform) NewDecoupledHWLQGRuntime(ctl *robust.Controller) (*lqgctl.Runtime, error) {
	return p.newLQGRuntime(ctl, hwOnlyInCols, hwOutCols)
}

// newLQGRuntime wires an LQG controller to board signals given its column
// sets.
func (p *Platform) newLQGRuntime(ctl *robust.Controller, inCols, outCols []int) (*lqgctl.Runtime, error) {
	nu := ctl.NumCtrl
	return lqgctl.New(lqgctl.Config{
		Controller:     ctl,
		OutputScales:   scalesFor(p.Data.OutScales, outCols),
		ExternalScales: scalesFor(inputScales(p.Cfg), inCols[nu:]),
		InputScales:    scalesFor(inputScales(p.Cfg), inCols[:nu]),
		InputLevels:    levelsFor(inputLevels(p.Cfg), inCols[:nu]),
	})
}
