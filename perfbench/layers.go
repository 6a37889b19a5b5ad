package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"time"

	"yukta/internal/board"
	"yukta/internal/core"
	"yukta/internal/fault"
	"yukta/internal/fleet"
	"yukta/internal/mat"
	"yukta/internal/obs"
	"yukta/internal/robust"
	"yukta/internal/sched"
	"yukta/internal/workload"
)

// intervalUS is the 500 ms control interval in µs; per-interval costs are
// also reported as a share of it.
const intervalUS = 500e3

// perCall runs fn(i) for i = 0, 1, ... until at least minCalls calls and
// minDur have passed, and returns the mean seconds and heap allocations per
// call.
func perCall(minDur time.Duration, minCalls int, fn func(i int)) (sec, allocs float64) {
	m0 := mallocs()
	t0 := time.Now()
	n := 0
	for ; n < minCalls || time.Since(t0) < minDur; n++ {
		fn(n)
	}
	sec = seconds(t0) / float64(n)
	return sec, float64(mallocs()-m0) / float64(n)
}

// tracedSetup builds the platform step by step and reports identification
// and model-fit time.
func tracedSetup(r *run) (*core.Platform, error) {
	p, identifyS, fitS, err := newPlatformTimed()
	if !r.op(err) {
		return nil, fmt.Errorf("platform: %w", err)
	}
	r.set("core.identify_s", identifyS, "s")
	r.set("sysid.fit_s", fitS, "s")
	return p, nil
}

// checkSSV checks a designed controller's robustness certificate.
func checkSSV(r *run, what string, ctl *robust.Controller) {
	r.check(ctl.Report.SSV <= 1, "%s controller SSV %.4f > 1", what, ctl.Report.SSV)
	note("%s controller SSV %.4f (penalty %g)", what, ctl.Report.SSV, ctl.Report.ControlPenalty)
}

// designSuite designs the validated HW and OS SSV controllers on p, times
// each, then times one validation run and the penalty-ladder pieces the
// validation repeats per rung. It returns the validated HW controller.
func designSuite(r *run, p *core.Platform) (*robust.Controller, error) {
	hp, op := core.DefaultHWParams(), core.DefaultOSParams()
	cpu0 := cpuSeconds()
	t0 := time.Now()
	hw, err := p.HWControllerValidated(hp)
	if !r.op(err) {
		return nil, fmt.Errorf("HW design: %w", err)
	}
	r.set("core.validate_hw_s", seconds(t0), "s")
	t1 := time.Now()
	osc, err := p.OSControllerValidated(op)
	if !r.op(err) {
		return nil, fmt.Errorf("OS design: %w", err)
	}
	r.set("core.validate_os_s", seconds(t1), "s")
	r.set("core.design_cpu_util", (cpuSeconds()-cpu0)/(seconds(t0)*float64(r.nproc)), "frac")
	checkSSV(r, "HW", hw)
	checkSSV(r, "OS", osc)

	var runs []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		res, err := core.Run(p.Cfg, p.YuktaHWSSVOSHeuristic(hp), workload.MustLookup("swaptions"),
			core.RunOptions{MaxTime: 600 * time.Second})
		runs = append(runs, seconds(t)*1e3)
		if r.op(err) {
			r.check(res.Completed, "validation run did not complete")
		}
	}
	r.set("core.validation_run_ms", median(runs), "ms")

	t := time.Now()
	ladder, err := p.SynthesizeHWSSV(hp)
	if !r.op(err) {
		return nil, fmt.Errorf("HW ladder: %w", err)
	}
	ladderS := seconds(t)
	t = time.Now()
	_, err = p.DesignHWAtPenalty(hp, 1)
	if !r.op(err) {
		return nil, fmt.Errorf("HW candidate: %w", err)
	}
	candS := seconds(t)
	t = time.Now()
	_, err = p.SynthesizeOSSSV(op)
	if !r.op(err) {
		return nil, fmt.Errorf("OS ladder: %w", err)
	}
	r.set("robust.hw_ladder_s", ladderS, "s")
	r.set("robust.os_ladder_s", seconds(t), "s")
	r.set("robust.candidate_s", candS, "s")
	r.set("robust.candidates", float64(ladder.Report.Iterations), "count")
	// The ladder designs Iterations candidates, then sweeps the SSV lower
	// bound of the accepted one; the rest of its time is that sweep.
	r.set("robust.lower_bound_s", ladderS-float64(ladder.Report.Iterations)*candS, "s")
	return hw, nil
}

// randomCMatrix returns an n×n complex matrix with standard normal parts.
func randomCMatrix(rng *rand.Rand, n int) *mat.CMatrix {
	data := make([]complex128, n*n)
	for i := range data {
		data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return mat.CNew(n, n, data)
}

// kernelProbes times the μ-analysis and linear-algebra kernels on seeded
// 12×12 and 9×9 complex matrices (the HW and OS closed-loop sizes), the
// model's frequency response, and the SSV controller step.
func kernelProbes(r *run, p *core.Platform, hw *robust.Controller) error {
	rng := rand.New(rand.NewSource(seeded(r.opt.seed, 20)))
	ms := []*mat.CMatrix{randomCMatrix(rng, 12), randomCMatrix(rng, 9)}
	sec, allocs := perCall(0, 4, func(i int) { robust.MuUpperBound(ms[i%2]) })
	r.set("robust.mu_upper_ms", sec*1e3, "ms")
	r.set("robust.mu_upper_allocs", allocs, "count")
	sec, _ = perCall(200*time.Millisecond, 4, func(i int) { robust.MuLowerBound(ms[i%2]) })
	r.set("robust.mu_lower_ms", sec*1e3, "ms")
	sec, allocs = perCall(200*time.Millisecond, 100, func(i int) { mat.CMaxSingularValue(ms[i%2]) })
	r.set("mat.cmaxsv_us", sec*1e6, "us")
	r.set("mat.cmaxsv_allocs", allocs, "count")
	var evalErr error
	sec, _ = perCall(200*time.Millisecond, 100, func(i int) {
		z := cmplx.Exp(complex(0, math.Pi*float64(i%97)/97))
		if _, err := p.HW.Evaluate(z); err != nil {
			evalErr = err
		}
	})
	r.op(evalErr)
	r.set("lti.evaluate_us", sec*1e6, "us")

	rt, err := p.NewHWRuntime(hw)
	if !r.op(err) {
		return err
	}
	if !r.op(rt.SetTargets([]float64{6, 2.9, 0.25, 74})) {
		return fmt.Errorf("ssvctl targets")
	}
	meas := []float64{5.5, 2.8, 0.2, 72}
	ext := []float64{6, 1.5, 1}
	applied := []float64{4, 4, 1.2, 1.2}
	var stepErr error
	sec, allocs = perCall(200*time.Millisecond, 1000, func(int) {
		if _, err := rt.Step(meas, ext, applied); err != nil {
			stepErr = err
		}
	})
	r.op(stepErr)
	r.set("ssvctl.step_us", sec*1e6, "us")
	r.set("ssvctl.step_allocs", allocs, "count")
	r.set("ssvctl.step_share", sec*1e6/intervalUS, "frac")
	return nil
}

// unitProbes times single operations of the simulation and observation
// layers, driven directly: one board interval, the fault taps, the event
// heap at fleet size, a trace record, a StepRun interval and JSONL export.
// It returns the board interval cost in µs.
func unitProbes(r *run, p *core.Platform, heapSize int) float64 {
	b := board.New(p.Cfg)
	w := workload.MustLookup("blackscholes")
	sec, allocs := perCall(300*time.Millisecond, 200, func(int) {
		if w.Done() {
			w.Reset()
			b = board.New(p.Cfg)
		}
		b.Run(w, 500*time.Millisecond)
	})
	boardUS := sec * 1e6
	r.set("board.interval_us", boardUS, "us")
	r.set("board.interval_allocs", allocs, "count")
	r.set("board.interval_share", boardUS/intervalUS, "frac")

	inj := fault.Preset(seeded(r.opt.seed, 21), 0.5).NewInjector("perfbench/probe")
	fb := board.New(p.Cfg)
	s := board.Sensors{BigPowerW: 2, LittlePowerW: 0.2, TempC: 60, BIPS: 4, BIPSBig: 3, BIPSLittle: 1}
	sec, _ = perCall(200*time.Millisecond, 1000, func(int) {
		inj.Advance(fb)
		_ = inj.TapSensors(s)
		inj.TapBigCores(4, 4)
		inj.TapLittleCores(4, 4)
		inj.TapBigFreq(1.6, 1.4, 0.1)
		inj.TapLittleFreq(1.2, 1.0, 0.1)
	})
	r.set("fault.tap_ns", sec*1e9, "ns")
	r.set("fault.tap_share", sec*1e6/intervalUS, "frac")

	rng := rand.New(rand.NewSource(seeded(r.opt.seed, 22)))
	h := sched.NewHeap(heapSize)
	times := make([]int, heapSize)
	for i := range times {
		times[i] = rng.Intn(3000)
	}
	sec, _ = perCall(200*time.Millisecond, 3, func(int) {
		for i, t := range times {
			h.Push(sched.Event{Time: t, ID: int32(i)})
		}
		for h.Len() > 0 {
			h.Pop()
		}
	})
	r.set("sched.event_ns", sec*1e9/float64(heapSize), "ns")

	rec := obs.NewRecorder(obs.DefaultCapacity)
	sec, _ = perCall(100*time.Millisecond, 1000, func(i int) {
		rec.Add(obs.Record{Step: i, TimeS: float64(i) * 0.5, BigPowerW: 2, LittlePowerW: 0.2, TempC: 60, BIPS: 4})
	})
	r.set("obs.record_ns", sec*1e9, "ns")
	r.set("obs.record_share", sec*1e6/intervalUS, "frac")

	var stepUS []float64
	for _, app := range []string{"blackscholes", "mcf", "x264"} {
		sr, err := core.NewStepRun(p.Cfg, p.MonolithicLQG(), workload.MustLookup(app),
			core.RunOptions{MaxTime: 1500 * time.Second, SkipSeries: true})
		if !r.op(err) {
			continue
		}
		t0 := time.Now()
		n := 0
		for !sr.Done() {
			n += sr.Step(1)
		}
		stepUS = append(stepUS, seconds(t0)*1e6/float64(n))
	}
	r.set("core.steprun_us_per_interval", median(stepUS), "us")
	r.set("core.steprun_share", median(stepUS)/intervalUS, "frac")

	trace := obs.NewRecorder(obs.DefaultCapacity)
	_, err := core.Run(p.Cfg, p.MonolithicLQG(), workload.MustLookup("blackscholes"),
		core.RunOptions{MaxTime: 1500 * time.Second, SkipSeries: true, Trace: trace})
	r.op(err)
	var buf bytes.Buffer
	if r.op(trace.WriteJSONL(&buf)) {
		_, verr := obs.ValidateJSONL(bytes.NewReader(buf.Bytes()))
		r.check(verr == nil, "probe trace: %v", verr)
	}
	bytesOut := float64(buf.Len())
	sec, _ = perCall(200*time.Millisecond, 5, func(int) { _ = trace.WriteJSONL(io.Discard) })
	r.set("obs.jsonl_mb_per_s", bytesOut/(1<<20)/sec, "MB/s")
	return boardUS
}

// stepTimer wraps schemes so that every Session.Step is timed, per scheme.
// A fleet steps each board on one worker at a time, so each wrapped session
// keeps its own totals without locking; the timer only locks to register
// new sessions.
type stepTimer struct {
	mu       sync.Mutex
	sessions map[string][]*timedSession
}

type timedSession struct {
	inner core.Session
	d     time.Duration
	n     int64
}

func (t *timedSession) Step(s board.Sensors, b *board.Board, threads int) {
	t0 := time.Now()
	t.inner.Step(s, b, threads)
	t.d += time.Since(t0)
	t.n++
}

func newStepTimer() *stepTimer { return &stepTimer{sessions: map[string][]*timedSession{}} }

// wrap returns sch with timed sessions. Name and FaultKey are kept, so the
// wrapped scheme draws the same fault streams and simulates the same run.
func (st *stepTimer) wrap(sch core.Scheme) core.Scheme {
	return core.Scheme{Name: sch.Name, FaultKey: sch.FaultKey, New: func() (core.Session, error) {
		inner, err := sch.New()
		if err != nil {
			return nil, err
		}
		ts := &timedSession{inner: inner}
		st.mu.Lock()
		st.sessions[sch.Name] = append(st.sessions[sch.Name], ts)
		st.mu.Unlock()
		return ts, nil
	}}
}

// stats returns the total step time and the mean µs per step of the named
// schemes' sessions.
func (st *stepTimer) stats(names ...string) (total time.Duration, meanUS float64) {
	var n int64
	for _, name := range names {
		for _, ts := range st.sessions[name] {
			total += ts.d
			n += ts.n
		}
	}
	if n == 0 {
		return 0, math.NaN()
	}
	return total, float64(total.Nanoseconds()) / 1e3 / float64(n)
}

// timedPolicy times every Allocate of a tree node's budget policy. The tree
// calls policies from its coordination goroutine only.
type timedPolicy struct {
	inner fleet.Policy
	acc   *reallocTimer
}

type reallocTimer struct {
	d time.Duration
	n int64
}

func (t *timedPolicy) Name() string { return t.inner.Name() }

func (t *timedPolicy) Allocate(dst []float64, b fleet.Budget, tel []fleet.Telemetry) {
	t0 := time.Now()
	t.inner.Allocate(dst, b, tel)
	t.acc.d += time.Since(t0)
	t.acc.n++
}

// commonLayers runs what every traced run measures besides its own main
// phase: the SSV design suite (unless the main phase ran it and passes its
// HW controller), the kernels, a serve leg of plan pl (nil when the main
// phase was one), and the Go runtime's costs.
func commonLayers(r *run, p *core.Platform, dirs *dataDirs, pl *sessionPlan, hw *robust.Controller) error {
	if hw == nil {
		var err error
		if hw, err = designSuite(r, p); err != nil {
			return err
		}
	}
	if err := kernelProbes(r, p, hw); err != nil {
		return err
	}
	if pl != nil {
		leg, err := serveLeg(r, p, dirs, *pl, legDuration(r), 0)
		if err != nil {
			return err
		}
		reportServe(r, leg)
	}
	gc, alloc := runtimeCosts()
	r.set("runtime.gc_cpu_frac", gc, "frac")
	r.set("runtime.alloc_mb", alloc, "MB")
	return nil
}
