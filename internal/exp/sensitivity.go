package exp

import (
	"fmt"
	"time"

	"yukta/internal/core"
	"yukta/internal/series"
	"yukta/internal/ssvctl"
	"yukta/internal/workload"
)

// ssvVariant is one labelled setting of the two SSV layers' design
// parameters.
type ssvVariant struct {
	Label string
	HW    core.HWParams
	OS    core.OSParams
}

// boundsVariants are the §VI-E1 output-deviation-bound settings: the paper's
// default ±20% performance bound (±1 BIPS in their absolute terms), then
// ±30% and ±50%, with the critical outputs scaled proportionally.
func boundsVariants() []ssvVariant {
	mk := func(label string, scale float64) ssvVariant {
		hw := core.DefaultHWParams()
		hw.PerfBoundFrac *= scale
		hw.CriticalBoundFrac *= scale
		os := core.DefaultOSParams()
		os.BoundFrac *= scale
		return ssvVariant{label, hw, os}
	}
	return []ssvVariant{
		mk("±20% (paper default)", 1.0),
		mk("±30%", 1.5),
		mk("±50%", 2.5),
	}
}

// fixedTargetFigure runs blackscholes for 500 s under each variant's SSV
// layers holding the §VI-E1 fixed targets — Perf 5.5 BIPS, big power 2.5 W,
// little power 0.2 W, temperature 70 °C; OS targets 1 / 4.5 BIPS and
// ΔSC = 1 — and plots pick of each run.
func (c *Context) fixedTargetFigure(title string, vs []ssvVariant,
	pick func(*core.RunResult) *series.Series) (*TraceSet, error) {

	traces := make([]*series.Series, len(vs))
	err := c.forEach(len(vs), func(i int) error {
		v := vs[i]
		hw, err := c.P.NewFixedHWSession(v.HW, []float64{5.5, 2.5, 0.2, 70})
		if err != nil {
			return err
		}
		os, err := c.P.NewFixedOSSession(v.OS, []float64{1, 4.5, 1})
		if err != nil {
			return err
		}
		sch := core.Scheme{Name: v.Label, New: func() (core.Session, error) {
			return &core.FixedTargetSession{HW: hw, OS: os}, nil
		}}
		w, err := workload.Lookup("blackscholes")
		if err != nil {
			return err
		}
		res, err := core.Run(c.P.Cfg, sch, w,
			core.RunOptions{MaxTime: 500 * time.Second, Metrics: c.Metrics})
		if err != nil {
			return err
		}
		traces[i] = pick(res)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &TraceSet{Title: title, Series: map[string]*series.Series{}}
	for i, v := range vs {
		out.Order = append(out.Order, v.Label)
		out.Series[v.Label] = traces[i]
	}
	return out, nil
}

// Fig15a reproduces Figure 15(a): performance of blackscholes versus time
// with fixed output targets, for the three output-deviation-bound settings.
func (c *Context) Fig15a() (*TraceSet, error) {
	return c.fixedTargetFigure("Figure 15(a): fixed-target tracking, blackscholes (target 5.5 BIPS)",
		boundsVariants(), func(r *core.RunResult) *series.Series { return r.Perf })
}

// Fig15b reproduces Figure 15(b): average E×D of Yukta: HW SSV+OS SSV for
// the three bound settings, normalized to the Coordinated heuristic (pass
// nil for the full suite).
func (c *Context) Fig15b(apps []string) (*BarSet, error) {
	if apps == nil {
		apps = EvalApps()
	}
	schemes := []core.Scheme{c.P.CoordinatedHeuristic()}
	for _, v := range boundsVariants() {
		sch := c.P.YuktaFullSSV(v.HW, v.OS)
		sch.Name = "Yukta " + v.Label
		schemes = append(schemes, sch)
	}
	exd, _, err := c.runMatrix("Figure 15(b): E×D vs output bounds", schemes, apps, appLoader)
	return exd, err
}

// GuardbandPoint is one sample of the Figure 16 sweep.
type GuardbandPoint struct {
	Guardband float64
	// BoundsGrowth is the guaranteed output-deviation bound relative to the
	// ±40% design (Fig. 16a).
	BoundsGrowth float64
	// SSV and penalty document the synthesized design.
	SSV     float64
	Penalty float64
}

// Fig16a reproduces Figure 16(a): how the guaranteed output deviation
// bounds grow as the uncertainty guardband increases from the default ±40%.
func (c *Context) Fig16a() ([]GuardbandPoint, error) {
	gbs := []float64{0.4, 1.0, 1.5, 2.5, 5.0}
	out := make([]GuardbandPoint, len(gbs))
	err := c.forEach(len(gbs), func(i int) error {
		gb := gbs[i]
		hp := core.DefaultHWParams()
		hp.Uncertainty = gb
		// Hold the controller's aggressiveness (W, B) fixed at the default
		// design's penalty: the growing guardband then shows up directly as
		// growing guaranteed bounds (min(s) < 1), the paper's reading of the
		// sweep.
		ctl, err := c.P.DesignHWAtPenalty(hp, 1)
		if err != nil {
			return fmt.Errorf("exp: guardband %.0f%%: %w", gb*100, err)
		}
		out[i] = GuardbandPoint{
			Guardband:    gb,
			BoundsGrowth: ctl.Report.GuaranteedBounds[0],
			SSV:          ctl.Report.SSV,
			Penalty:      ctl.Report.ControlPenalty,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Normalize to the first (default-guardband) design after all points are
	// in, so the reference does not depend on completion order.
	ref := out[0].BoundsGrowth
	if ref != 0 {
		for i := range out {
			out[i].BoundsGrowth /= ref
		}
	}
	return out, nil
}

// Fig16b reproduces Figure 16(b): E×D of Yukta: HW SSV+OS SSV for different
// uncertainty guardbands, normalized to the Coordinated heuristic.
func (c *Context) Fig16b(apps []string) (*BarSet, error) {
	if apps == nil {
		apps = EvalApps()
	}
	schemes := []core.Scheme{c.P.CoordinatedHeuristic()}
	for _, gb := range []float64{0.4, 1.5, 2.5, 5.0} {
		hp := core.DefaultHWParams()
		hp.Uncertainty = gb
		op := core.DefaultOSParams()
		sch := c.P.YuktaFullSSV(hp, op)
		sch.Name = fmt.Sprintf("Yukta ±%.0f%% guardband", gb*100)
		schemes = append(schemes, sch)
	}
	exd, _, err := c.runMatrix("Figure 16(b): E×D vs uncertainty guardband", schemes, apps, appLoader)
	return exd, err
}

// Fig17 reproduces Figure 17: big-cluster power versus time when tracking a
// fixed 2.5 W big-power target, for input weights 0.5, 1 and 2.
func (c *Context) Fig17() (*TraceSet, error) {
	var vs []ssvVariant
	for _, w := range []float64{0.5, 1, 2} {
		hp := core.DefaultHWParams()
		hp.InputWeight = w
		vs = append(vs, ssvVariant{fmt.Sprintf("input weights %.1f", w), hp, core.DefaultOSParams()})
	}
	return c.fixedTargetFigure("Figure 17: big-cluster power (W) tracking 2.5 W, by input weight",
		vs, func(r *core.RunResult) *series.Series { return r.BigPower })
}

// HWCost reproduces §VI-D: the hardware-implementation characteristics of
// the hardware SSV controller.
type HWCost struct {
	StateDim              int
	Inputs, Outputs, Exts int
	OpsPerInvocation      int
	StorageBytes          int
}

// HWCostReport computes the §VI-D metrics for the default hardware
// controller.
func (c *Context) HWCostReport() (*HWCost, error) {
	ctl, err := c.P.HWControllerValidated(core.DefaultHWParams())
	if err != nil {
		return nil, err
	}
	rt, err := c.P.NewHWRuntime(ctl)
	if err != nil {
		return nil, err
	}
	return &HWCost{
		StateDim:         ctl.Report.StateDim,
		Inputs:           ctl.NumCtrl,
		Outputs:          ctl.NumOut,
		Exts:             ctl.NumExt,
		OpsPerInvocation: rt.OpsPerStep(),
		StorageBytes:     rt.StateBytes(),
	}, nil
}

// NewHWStepRuntime returns a ready runtime for micro-benchmarking one
// controller invocation (§VI-D measures ~28 µs on a Cortex-A7).
func (c *Context) NewHWStepRuntime() (*ssvctl.Runtime, error) {
	ctl, err := c.P.HWControllerValidated(core.DefaultHWParams())
	if err != nil {
		return nil, err
	}
	return c.P.NewHWRuntime(ctl)
}
