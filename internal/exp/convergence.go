package exp

import (
	"fmt"
	"math"
	"strings"
	"time"

	"yukta/internal/board"
	"yukta/internal/core"
	"yukta/internal/workload"
)

// Convergence reproduces the §VI-B response-time comparison between the SSV
// and LQG hardware controllers. The paper reports that after a target step
// the LQG controller needs ≈6 sampling intervals to converge the big-cluster
// power where the SSV controller needs ≈2, and that the E×D optimizer needs
// ≈90 intervals to settle its targets with LQG against ≈30 with SSV.
type Convergence struct {
	// StepIntervals is the number of 500 ms control intervals each
	// controller needs to bring the big-cluster power within the tolerance
	// band of a stepped target.
	SSVStepIntervals, LQGStepIntervals int
	// OptimizerIntervals is the number of intervals until the measured E×D
	// rate first comes within 10% of the run's best sustained value.
	SSVOptimizerIntervals, LQGOptimizerIntervals int
}

// stepSession abstracts the two runtimes for the power-step measurement.
type stepSession interface {
	SetTargets(phys []float64) error
	Step(meas, ext, applied []float64) ([]float64, error)
}

// lqgStepAdapter adapts the LQG runtime (which takes no applied-command
// feedback) to the stepSession shape.
type lqgStepAdapter struct {
	rt interface {
		SetTargets(phys []float64) error
		Step(meas, ext []float64) ([]float64, error)
	}
}

func (a lqgStepAdapter) SetTargets(p []float64) error { return a.rt.SetTargets(p) }
func (a lqgStepAdapter) Step(meas, ext, applied []float64) ([]float64, error) {
	return a.rt.Step(meas, ext)
}

// measureStep runs blackscholes' parallel phase under the controller with a
// fixed target set, steps the big-power target from lo to hi at mid-run, and
// counts the intervals until the sensed power stays within tol of hi for
// three consecutive intervals.
func (c *Context) measureStep(sess stepSession, ext bool) (int, error) {
	const (
		lo, hi, tol = 2.2, 2.9, 0.18
		warmup      = 60
		budget      = 80
	)
	b := board.New(c.P.Cfg)
	w, err := workload.Lookup("blackscholes")
	if err != nil {
		return 0, err
	}
	w.Advance(w.Total() * 0.06) // into the parallel phase
	if err := sess.SetTargets([]float64{5.5, lo, 0.2, 70}); err != nil {
		return 0, err
	}
	step := func(s board.Sensors) error {
		pl := b.Placement()
		meas := []float64{s.BIPS, s.BigPowerW, s.LittlePowerW, s.TempC}
		var e []float64
		if ext {
			e = []float64{float64(pl.ThreadsBig), pl.ThreadsPerBigCore, pl.ThreadsPerLittleCore}
		}
		applied := []float64{float64(b.BigCores()), float64(b.LittleCores()),
			b.EffectiveBigFreq(), b.EffectiveLittleFreq()}
		u, err := sess.Step(meas, e, applied)
		if err != nil {
			return err
		}
		b.SetBigCores(int(math.Round(u[0])))
		b.SetLittleCores(int(math.Round(u[1])))
		b.SetBigFreq(u[2])
		b.SetLittleFreq(u[3])
		return nil
	}
	// Keep a fixed reasonable placement so only the HW loop is measured.
	b.Place(board.Placement{ThreadsBig: 8, ThreadsLittle: 0, ThreadsPerBigCore: 2, ThreadsPerLittleCore: 1})
	for i := 0; i < warmup && !w.Done(); i++ {
		s := b.Run(w, 500*time.Millisecond)
		if err := step(s); err != nil {
			return 0, err
		}
	}
	if err := sess.SetTargets([]float64{5.5, hi, 0.2, 70}); err != nil {
		return 0, err
	}
	// Record the post-step trajectory, then measure convergence to the
	// controller's own new steady state (the bounded-input compromise means
	// the settled power is near, not exactly at, the commanded target).
	trace := make([]float64, 0, budget)
	for i := 1; i <= budget && !w.Done(); i++ {
		s := b.Run(w, 500*time.Millisecond)
		if err := step(s); err != nil {
			return 0, err
		}
		trace = append(trace, s.BigPowerW)
	}
	if len(trace) < 12 {
		return budget, nil
	}
	var final float64
	for _, v := range trace[len(trace)-10:] {
		final += v
	}
	final /= 10
	inBand := 0
	for i, v := range trace {
		if math.Abs(v-final) <= tol {
			inBand++
			if inBand >= 3 {
				return i - 1, nil
			}
		} else {
			inBand = 0
		}
	}
	return budget, nil
}

// optimizerSettle runs a full scheme on blackscholes and returns the number
// of intervals until the 10-interval moving E×D rate first comes within 10%
// of the run's best sustained value.
func (c *Context) optimizerSettle(sch core.Scheme) (int, error) {
	w, err := workload.Lookup("blackscholes")
	if err != nil {
		return 0, err
	}
	res, err := core.Run(c.P.Cfg, sch, w, c.traceOpts())
	if err != nil {
		return 0, err
	}
	// E×D rate per interval from the traces: (Pb + Pl + base)/BIPS².
	n := res.Perf.Len()
	if n < 30 {
		return 0, fmt.Errorf("exp: run too short (%d intervals)", n)
	}
	rate := make([]float64, n)
	for i := 0; i < n; i++ {
		perf := math.Max(res.Perf.V[i], 0.3)
		rate[i] = (res.BigPower.V[i] + res.LittlePower.V[i] + c.P.Cfg.BasePowerW) / (perf * perf)
	}
	const win = 10
	smooth := make([]float64, 0, n-win)
	for i := 0; i+win <= n; i++ {
		var s float64
		for j := i; j < i+win; j++ {
			s += rate[j]
		}
		smooth = append(smooth, s/win)
	}
	best := math.Inf(1)
	for _, v := range smooth[:len(smooth)-5] {
		if v < best {
			best = v
		}
	}
	for i, v := range smooth {
		if v <= best*1.10 {
			return i + win, nil
		}
	}
	return n, nil
}

// ConvergenceReport measures the §VI-B response-time comparison. The four
// measurements are independent (each runs on its own board), so they fan
// out across the worker pool; each job writes its own field of the report.
func (c *Context) ConvergenceReport() (*Convergence, error) {
	out := &Convergence{}
	jobs := []func() error{
		// Power-step response: SSV hardware controller.
		func() error {
			ssvCtl, err := c.P.HWControllerValidated(core.DefaultHWParams())
			if err != nil {
				return err
			}
			ssvRT, err := c.P.NewHWRuntime(ssvCtl)
			if err != nil {
				return err
			}
			out.SSVStepIntervals, err = c.measureStep(ssvRT, true)
			return err
		},
		// Power-step response: decoupled hardware LQG (no external signals).
		func() error {
			lqgHW, _, err := c.P.DecoupledLQGControllers()
			if err != nil {
				return err
			}
			lqgRT, err := c.P.NewDecoupledHWLQGRuntime(lqgHW)
			if err != nil {
				return err
			}
			out.LQGStepIntervals, err = c.measureStep(lqgStepAdapter{rt: lqgRT}, false)
			return err
		},
		// Optimizer settling: full Yukta vs monolithic LQG.
		func() error {
			var err error
			out.SSVOptimizerIntervals, err = c.optimizerSettle(
				c.P.YuktaFullSSV(core.DefaultHWParams(), core.DefaultOSParams()))
			return err
		},
		func() error {
			var err error
			out.LQGOptimizerIntervals, err = c.optimizerSettle(c.P.MonolithicLQG())
			return err
		},
	}
	if err := c.forEach(len(jobs), func(i int) error { return jobs[i]() }); err != nil {
		return nil, err
	}
	return out, nil
}

// RenderConvergence renders the §VI-B comparison.
func RenderConvergence(cv *Convergence) string {
	var sb strings.Builder
	sb.WriteString("§VI-B convergence comparison (500 ms control intervals)\n")
	fmt.Fprintf(&sb, "  big-power target step:  SSV %d intervals, LQG %d intervals (paper: 2 vs 6)\n",
		cv.SSVStepIntervals, cv.LQGStepIntervals)
	fmt.Fprintf(&sb, "  optimizer settling:     SSV %d intervals, LQG %d intervals (paper: 30 vs 90)\n",
		cv.SSVOptimizerIntervals, cv.LQGOptimizerIntervals)
	return sb.String()
}
