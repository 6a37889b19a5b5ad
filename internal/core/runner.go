package core

import (
	"fmt"
	"time"

	"yukta/internal/board"
	"yukta/internal/fault"
	"yukta/internal/obs"
	"yukta/internal/robust"
	"yukta/internal/series"
	"yukta/internal/supervisor"
	"yukta/internal/workload"
)

// RunResult records one workload execution under one scheme.
type RunResult struct {
	App    string
	Scheme string

	// TimeS is the completion time (delay D) in seconds; EnergyJ the energy
	// E in joules; ExD their product in J·s.
	TimeS   float64
	EnergyJ float64
	ExD     float64

	Completed       bool
	EmergencyEvents int

	// IntervalS is the control interval the run executed at, in seconds
	// (converts the supervisor's step counts to time).
	IntervalS float64

	// Faults counts the faults actually injected when the run executed under
	// a fault plan (zero for clean runs).
	Faults fault.Stats

	// Supervisor holds the supervisory-layer accounting when the scheme was
	// wrapped by SupervisedScheme (nil otherwise).
	Supervisor *supervisor.Stats

	// Traces of the signals plotted in the paper's time-series figures.
	// All five are nil when the run was executed with
	// RunOptions.SkipSeries — scalar-only sweeps opt out of the buffers
	// they would otherwise discard.
	BigPower    *series.Series // Figure 10 / 17
	LittlePower *series.Series
	Perf        *series.Series // Figure 11 / 15(a)
	Temp        *series.Series
	BigFreq     *series.Series
}

// Run-horizon defaults for a RunOptions or FleetOptions field left zero.
const (
	DefaultMaxTime  = 1200 * time.Second
	DefaultInterval = 500 * time.Millisecond
)

// RunOptions bounds a run.
type RunOptions struct {
	// MaxTime aborts runs that fail to complete (a misbehaving controller
	// must not hang an experiment). Default 1200 s.
	MaxTime time.Duration
	// Interval is the control interval. Default 500 ms (§V-A).
	Interval time.Duration
	// Faults, when enabled, injects the plan's fault sequence into the run:
	// the board's sensor and actuator paths are tapped, forced TMU events are
	// scheduled, and the workload is wrapped with the plan's phase
	// disturbance. The injected sequence is fully determined by
	// (Faults.Seed, scheme name, app name), so identical runs see identical
	// faults at any experiment parallelism.
	Faults fault.Plan
	// SkipSeries skips allocating and filling the five series.Series trace
	// buffers in RunResult. Scalar-only sweeps (degradation tables, bar
	// figures) set it so thousands of runs do not each retain a full
	// time-series trace they never read.
	SkipSeries bool
	// Trace, when non-nil, receives one obs.Record per control interval:
	// the sensor vector the controller saw, the commanded vs applied
	// actuation, the supervisory state and detector pressures, the faults
	// injected that interval, and the controller step latency. A Recorder
	// belongs to exactly one run. Nil (the default) keeps the control loop
	// free of any observation cost.
	Trace *obs.Recorder
	// Metrics, when non-nil, aggregates this run into the registry: a
	// per-scheme step-latency histogram plus run/fault/trip/fallback
	// counters. Unlike Trace, one Registry is shared across every run of an
	// experiment session (it is concurrency-safe).
	Metrics *obs.Registry
}

// Run executes the workload to completion (or MaxTime) under the scheme on a
// fresh board and returns the measured result. It drives a StepRun to its
// end, so a batch run and a hosted session execute one interval body.
func Run(cfg board.Config, sch Scheme, w workload.Workload, opt RunOptions) (*RunResult, error) {
	s, err := NewStepRun(cfg, sch, w, opt)
	if err != nil {
		return nil, err
	}
	s.Step(s.MaxSteps())
	return s.Result(), nil
}

// boardRun is one board's run state: the workload, the board, the
// controller session, the fault injector, the latest sensor readings and
// the observation taps. A solo run (StepRun) holds one; a fleet holds one
// per member (fleetBoard embeds it). newBoardRun is the only place a board
// run is set up, and step the only definition of one control interval, so
// every driver consumes the fault RNG streams and records every value
// identically.
type boardRun struct {
	w        workload.Workload
	b        *board.Board
	sess     Session
	inj      *fault.Injector
	interval time.Duration
	sensors  board.Sensors

	// Observation taps. Everything is nil-guarded so an unobserved run takes
	// no time.Now calls and no extra allocations in the control loop.
	lat        *obs.Histogram
	trace      *obs.Recorder
	hp         healthProbe
	fp         flightProber
	prevFaults fault.Stats
}

// newBoardRun instantiates the scheme, derives the board's fault stream,
// disturbs and resets the workload, builds the board with its fault taps
// and picks up the observation taps. The fault key is
// fault.RunKeyPath(scheme, app, path, local): a fleet board passes its
// leaf path and leaf-local index, and a solo run passes "" and 0 — the
// key of board 0 of a one-level fleet, so the two pair under common
// random numbers. trace and metrics may be nil.
func newBoardRun(cfg board.Config, sch Scheme, w workload.Workload, faults fault.Plan,
	path string, local int, interval time.Duration, trace *obs.Recorder, metrics *obs.Registry) (boardRun, error) {

	sess, err := sch.New()
	if err != nil {
		return boardRun{}, fmt.Errorf("core: building scheme %q: %w", sch.Name, err)
	}
	r := boardRun{sess: sess, interval: interval, trace: trace}
	if faults.Enabled() {
		runKey := fault.RunKeyPath(sch.faultKey(), w.Name(), path, local)
		r.inj = faults.NewInjector(runKey)
		w = faults.Disturb(w, runKey)
	}
	w.Reset()
	r.w = w
	r.b = board.New(cfg)
	if r.inj != nil {
		r.b.AttachSensorTap(r.inj)
		r.b.AttachActuatorTap(r.inj)
	}
	if metrics != nil {
		r.lat = metrics.Histogram("step_latency_us/"+sch.Name, obs.LatencyBucketsUS())
	}
	if trace != nil {
		r.hp, _ = sess.(healthProbe)
		r.fp, _ = sess.(flightProber)
	}
	return r, nil
}

// step executes control interval i: advance the fault injector, run the
// board physics, invoke the controller stack, and feed the observation
// taps.
func (r *boardRun) step(i int) {
	if r.inj != nil {
		r.inj.Advance(r.b)
	}
	r.sensors = r.b.Run(r.w, r.interval)
	observe := r.lat != nil || r.trace != nil
	var t0 time.Time
	if observe {
		t0 = time.Now()
	}
	r.sess.Step(r.sensors, r.b, r.w.Profile().Threads)
	if observe {
		latNS := time.Since(t0).Nanoseconds()
		if r.lat != nil {
			r.lat.Observe(float64(latNS) / 1e3)
		}
		if r.trace != nil {
			r.recordInterval(i, latNS)
		}
	}
}

// recordInterval distills control interval step into an obs.Record and
// appends it to the trace. prevFaults latches the injector's cumulative
// stats so the record carries per-interval deltas (their sums over a run
// reproduce fault.Stats exactly).
func (r *boardRun) recordInterval(step int, latNS int64) {
	s := &r.sensors
	act := r.b.ActuatorState()
	rec := obs.Record{
		Step:             step,
		TimeS:            s.TimeS,
		BigPowerW:        s.BigPowerW,
		LittlePowerW:     s.LittlePowerW,
		TempC:            s.TempC,
		BIPS:             s.BIPS,
		BIPSBig:          s.BIPSBig,
		BIPSLittle:       s.BIPSLittle,
		Throttled:        s.Throttled,
		ThermalThrottled: s.ThermalThrottled,
		PowerCapW:        s.PowerCapW,
		BudgetThrottled:  s.BudgetThrottled,
		CmdBigCores:      act.BigCores,
		CmdLittleCores:   act.LittleCores,
		CmdBigGHz:        act.BigFreqGHz,
		CmdLittleGHz:     act.LittleFreqGHz,
		EffBigGHz:        act.EffBigFreqGHz,
		EffLittleGHz:     act.EffLittleFreqGHz,
		ThreadsBig:       act.ThreadsBig,
		LatencyNS:        latNS,
	}
	if r.inj != nil {
		cur, prev := r.inj.Stats(), &r.prevFaults
		rec.FaultDropped = cur.DroppedReadings - prev.DroppedReadings
		rec.FaultStale = cur.StaleReadings - prev.StaleReadings
		rec.FaultHeld = cur.HeldCommands - prev.HeldCommands
		rec.FaultSkewed = cur.SkewedCommands - prev.SkewedCommands
		rec.FaultForced = cur.ForcedThrottles - prev.ForcedThrottles
		*prev = cur
	}
	if r.hp != nil {
		h := r.hp.controllerHealth()
		rec.CtlGuardbandStreak = h.GuardbandStreak
		rec.CtlHeldSteps = h.HeldSteps
		rec.CtlRailed = h.Railed
		rec.CtlNonFinite = h.NonFinite
	}
	if r.fp != nil {
		p := r.fp.flightProbe()
		rec.SupState = p.State.String()
		rec.SupTripped = p.Tripped
		if p.Tripped {
			rec.SupCause = p.Cause.String()
		}
		rec.SupReengage = p.Reengage
		rec.SupBlockRaise = p.BlockRaise
		rec.DetSuspect = p.SuspectStreak
		rec.DetRail = p.RailStreak
		rec.DetChatter = p.ChatterCount
		rec.DetDropout = p.DropoutCount
		rec.DetMismatch = p.MismatchCount
		rec.DetThrottle = p.ThrottleCount
		rec.DetCostRatio = p.CostRatio
	}
	r.trace.Add(rec)
}

// countRun folds one completed run into the metrics registry.
func countRun(m *obs.Registry, res *RunResult) {
	m.Counter("runs_total").Add(1)
	if !res.Completed {
		m.Counter("runs_incomplete_total").Add(1)
	}
	countFaults(m, res.Faults)
	if sup := res.Supervisor; sup != nil {
		m.Counter("supervised_runs_total").Add(1)
		m.Counter("supervisor_trips_total").Add(int64(sup.Trips))
		m.Counter("supervisor_fallback_steps_total").Add(int64(sup.FallbackSteps))
		m.Counter("supervisor_recoveries_total").Add(int64(sup.Recoveries))
		m.Counter("supervisor_frozen_steps_total").Add(int64(sup.FrozenSteps))
		m.Counter("supervisor_distrust_steps_total").Add(int64(sup.DistrustSteps))
	}
}

// countFaults folds one run's (or one fleet board's) injected faults into
// the metrics registry.
func countFaults(m *obs.Registry, f fault.Stats) {
	if n := f.DroppedReadings + f.StaleReadings + f.HeldCommands +
		f.SkewedCommands + f.ForcedThrottles; n > 0 {
		m.Counter("faults_injected_total").Add(int64(n))
		m.Counter("faults_dropped_total").Add(int64(f.DroppedReadings))
		m.Counter("faults_stale_total").Add(int64(f.StaleReadings))
		m.Counter("faults_held_total").Add(int64(f.HeldCommands))
		m.Counter("faults_skewed_total").Add(int64(f.SkewedCommands))
		m.Counter("faults_forced_total").Add(int64(f.ForcedThrottles))
	}
}

// FixedTargetSession drives the SSV layers with constant output targets
// instead of optimizers — the §VI-E1 experiment ("we set fixed targets for
// each of the outputs") and the §VI-E3 power-tracking experiment.
type FixedTargetSession struct {
	HW Session
	OS Session // optional
}

// Step implements Session.
func (f *FixedTargetSession) Step(s board.Sensors, b *board.Board, threads int) {
	f.HW.Step(s, b, threads)
	if f.OS != nil {
		f.OS.Step(s, b, threads)
	}
}

// NewFixedHWSession builds an SSV hardware session that tracks the given
// fixed targets [Perf, Power_big, Power_little, Temp]. Its controller is
// the one SynthesizeHWSSV designs, certified without refining the bound
// (robust.Certify): the session reads only the guaranteed bounds.
func (p *Platform) NewFixedHWSession(hp HWParams, targets []float64) (Session, error) {
	ctl, err := robust.Certify(p.hwSpec(hp, 0))
	if err != nil {
		return nil, err
	}
	return p.hwSSVLayer(ctl, targets)
}

// NewFixedOSSession builds an SSV software session tracking fixed targets
// [Perf_little, Perf_big, ΔSC], with the controller SynthesizeOSSSV
// designs, certified as for NewFixedHWSession.
func (p *Platform) NewFixedOSSession(op OSParams, targets []float64) (Session, error) {
	ctl, err := robust.Certify(p.osSpec(op, 0))
	if err != nil {
		return nil, err
	}
	return p.osSSVLayer(ctl, targets)
}
