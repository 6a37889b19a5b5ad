package board

import (
	"fmt"
	"math"
	"time"

	"yukta/internal/workload"
)

// Placement is the thread-scheduling decision the OS layer actuates on: how
// many threads go to the big cluster (the rest run on the little cluster)
// and the average number of threads packed onto each non-idle core of each
// cluster (paper Table III).
type Placement struct {
	// ThreadsBig is the number of threads assigned to the big cluster.
	ThreadsBig int
	// ThreadsLittle records the OS layer's intent for the little cluster;
	// the physics derives the actual little-cluster load from the workload's
	// runnable threads minus ThreadsBig, but hardware controllers read this
	// field as the coordination signal.
	ThreadsLittle int
	// ThreadsPerBigCore is the average thread packing per busy big core.
	ThreadsPerBigCore float64
	// ThreadsPerLittleCore is the average packing per busy little core.
	ThreadsPerLittleCore float64
}

// Sensors is what the board exposes to controllers at a control interval:
// the 260 ms power sensor readings, the hot-spot temperature, and
// perf-counter instruction rates accumulated since the previous control
// invocation.
type Sensors struct {
	// TimeS is the simulated wall-clock time of the reading, in seconds.
	TimeS float64

	// BigPowerW and LittlePowerW are the held values of the power sensors
	// (they update every Config.PowerSensorPeriod). Under fault injection a
	// dropped reading is reported as NaN and a stale reading repeats an
	// earlier window's value.
	BigPowerW, LittlePowerW float64

	// TempC is the hot-spot temperature reading in °C.
	TempC float64

	// BIPS values are derived from performance counters over the last
	// control interval.
	BIPS, BIPSBig, BIPSLittle float64

	// Throttled reports whether firmware emergency throttling is currently
	// engaged on either cluster.
	Throttled bool

	// ThermalThrottled reports whether specifically the thermal emergency
	// path is engaged (the per-path trip state is readable on real boards via
	// the cooling-device sysfs). A thermal emergency reported while the
	// temperature reading is cool is the signature of a misreading diode or
	// an externally forced cap — the supervisory layer keys on exactly that
	// inconsistency.
	ThermalThrottled bool

	// EmergencyEvents counts firmware emergency activations so far.
	EmergencyEvents int

	// PowerCapW is the board power budget currently imposed by the fleet
	// layer (0 = uncapped). It is part of the sensor vocabulary so fleet
	// budget policies and per-board controllers read the same view.
	PowerCapW float64

	// BudgetThrottled reports whether the budget governor is holding the
	// big-cluster frequency ceiling below maximum to enforce PowerCapW.
	// Distinct from Throttled: budget capping is an expected, externally
	// imposed constraint, not a firmware emergency.
	BudgetThrottled bool
}

// SensorTap intercepts the sensor view a controller receives at the end of
// a control interval. The board's internal physics and latched sensor state
// are never modified — only the Sensors struct handed to the caller of Run
// passes through the tap. The fault-injection layer uses this to model
// noisy, dropped and stale sensor readings (DESIGN.md "Fault model").
type SensorTap interface {
	// TapSensors receives the clean sensor view and returns the (possibly
	// corrupted) view the controller will observe.
	TapSensors(s Sensors) Sensors
}

// ActuatorTap intercepts actuator writes on their way to the board, so a
// fault layer can model lagging, lost or misapplied DVFS/hotplug commands.
// Each method receives the requested value (already clamped/quantized to the
// actuator's grid), the value currently in effect, and — for frequencies —
// the DVFS step size; it returns the value that actually takes effect. The
// board re-clamps and re-quantizes the returned value, so a tap can never
// drive an actuator outside its physical range.
type ActuatorTap interface {
	// TapBigCores intercepts big-cluster hotplug writes.
	TapBigCores(requested, current int) int
	// TapLittleCores intercepts little-cluster hotplug writes.
	TapLittleCores(requested, current int) int
	// TapBigFreq intercepts big-cluster DVFS writes (GHz).
	TapBigFreq(requested, current, step float64) float64
	// TapLittleFreq intercepts little-cluster DVFS writes (GHz).
	TapLittleFreq(requested, current, step float64) float64
}

// Board is a simulated ODROID XU3.
type Board struct {
	cfg Config

	// Actuator state (what cpufreq/hotplug files would hold).
	bigCores, littleCores int
	bigFreq, littleFreq   float64
	place                 Placement

	// Physics state.
	tempC   float64
	nowS    float64
	energyJ float64

	// Sensor state.
	sensedBigW, sensedLittleW float64
	windowBigE, windowLittleE float64 // energy in current sensor window
	windowStartS              float64

	// Perf counters.
	instTotal, instBig, instLittle float64 // Ginst, cumulative

	// Migration bookkeeping.
	migStallS float64

	// Fault-injection taps (nil = clean board).
	sensorTap SensorTap
	actTap    ActuatorTap

	// actMismatches counts actuator writes whose applied value differed from
	// the requested one (see ActuatorMismatches).
	actMismatches int

	tmu    tmu
	budget budget
}

// New returns a board in its power-on state: all cores online at maximum
// frequency, ambient temperature.
func New(cfg Config) *Board {
	b := &Board{
		cfg:         cfg,
		bigCores:    cfg.Big.MaxCores,
		littleCores: cfg.Little.MaxCores,
		bigFreq:     cfg.Big.FreqMaxGHz,
		littleFreq:  cfg.Little.FreqMaxGHz,
		tempC:       cfg.AmbientC,
		place: Placement{
			ThreadsBig:           0,
			ThreadsPerBigCore:    1,
			ThreadsPerLittleCore: 1,
		},
	}
	b.tmu = newTMU(cfg)
	b.budget = newBudget(cfg)
	return b
}

// Config returns the board's configuration.
func (b *Board) Config() Config { return b.cfg }

// AttachSensorTap installs t on the sensor read path (nil detaches). The tap
// sees every Sensors struct Run returns, in order, exactly once per control
// interval.
func (b *Board) AttachSensorTap(t SensorTap) { b.sensorTap = t }

// AttachActuatorTap installs t on the actuator write path (nil detaches).
// The tap sees every SetBigCores/SetLittleCores/SetBigFreq/SetLittleFreq
// call, in call order.
func (b *Board) AttachActuatorTap(t ActuatorTap) { b.actTap = t }

// ForceEmergencyThrottle makes the firmware treat the next d of simulated
// time as a sustained thermal violation, regardless of the actual hot-spot
// temperature — the fault model's forced TMU emergency-throttle event. The
// usual firmware dynamics apply: the violation must persist for
// EmergencyHold before the cap engages, and after the forced window passes
// (and the real temperature is safe) the cap releases one step at a time.
func (b *Board) ForceEmergencyThrottle(d time.Duration) {
	if d > 0 {
		b.tmu.forcedS += d.Seconds()
	}
}

// quantizeFreq clamps f into the cluster's range and rounds to the step grid.
func quantizeFreq(c ClusterConfig, f float64) float64 {
	if f < c.FreqMinGHz {
		f = c.FreqMinGHz
	}
	if f > c.FreqMaxGHz {
		f = c.FreqMaxGHz
	}
	steps := math.Round((f - c.FreqMinGHz) / c.FreqStepGHz)
	// Round to a clean multiple: operating points are exact firmware table
	// entries, not accumulated floating-point sums.
	return math.Round((c.FreqMinGHz+steps*c.FreqStepGHz)*1e6) / 1e6
}

// SetBigCores hotplugs the big cluster to n cores (1..4).
func (b *Board) SetBigCores(n int) {
	r := clampInt(n, 1, b.cfg.Big.MaxCores)
	n = r
	if b.actTap != nil {
		n = clampInt(b.actTap.TapBigCores(n, b.bigCores), 1, b.cfg.Big.MaxCores)
	}
	if n != r {
		b.actMismatches++
	}
	b.bigCores = n
}

// SetLittleCores hotplugs the little cluster to n cores (1..4).
func (b *Board) SetLittleCores(n int) {
	r := clampInt(n, 1, b.cfg.Little.MaxCores)
	n = r
	if b.actTap != nil {
		n = clampInt(b.actTap.TapLittleCores(n, b.littleCores), 1, b.cfg.Little.MaxCores)
	}
	if n != r {
		b.actMismatches++
	}
	b.littleCores = n
}

// SetBigFreq requests a big-cluster frequency in GHz; the value is clamped
// and quantized to the DVFS grid. An actual change stalls the board briefly
// (the PLL relock / voltage ramp of a real cpufreq transition).
func (b *Board) SetBigFreq(ghz float64) {
	r := quantizeFreq(b.cfg.Big, ghz)
	f := r
	if b.actTap != nil {
		f = quantizeFreq(b.cfg.Big, b.actTap.TapBigFreq(f, b.bigFreq, b.cfg.Big.FreqStepGHz))
	}
	if f != r {
		b.actMismatches++
	}
	if f != b.bigFreq {
		b.migStallS += b.cfg.DVFSTransition.Seconds()
	}
	b.bigFreq = f
}

// SetLittleFreq requests a little-cluster frequency in GHz.
func (b *Board) SetLittleFreq(ghz float64) {
	r := quantizeFreq(b.cfg.Little, ghz)
	f := r
	if b.actTap != nil {
		f = quantizeFreq(b.cfg.Little, b.actTap.TapLittleFreq(f, b.littleFreq, b.cfg.Little.FreqStepGHz))
	}
	if f != r {
		b.actMismatches++
	}
	if f != b.littleFreq {
		b.migStallS += b.cfg.DVFSTransition.Seconds()
	}
	b.littleFreq = f
}

// ActuatorMismatches counts actuator writes whose applied value differed
// from the (clamped, quantized) requested value — the read-back verification
// a real governor performs against sysfs after each write. On a clean board
// the applied value is the requested value by construction, so a non-zero
// delta across a control interval is positive evidence of an actuation
// fault (a lost or misapplied DVFS/hotplug command).
func (b *Board) ActuatorMismatches() int { return b.actMismatches }

// ActuatorState is a read-only snapshot of the board's operating point:
// the commanded (requested) actuator settings next to the applied
// (effective, post-firmware-cap) ones, plus the thread placement split. The
// flight recorder captures one per control interval — the commanded/applied
// divergence is how firmware overrides show up in a trace.
type ActuatorState struct {
	// BigCores and LittleCores are the hotplug states per cluster.
	BigCores, LittleCores int
	// BigFreqGHz and LittleFreqGHz are the requested frequencies (GHz).
	BigFreqGHz, LittleFreqGHz float64
	// EffBigFreqGHz and EffLittleFreqGHz are the applied frequencies after
	// firmware throttle caps (GHz).
	EffBigFreqGHz, EffLittleFreqGHz float64
	// ThreadsBig is the number of threads placed on the big cluster.
	ThreadsBig int
}

// ActuatorState snapshots the commanded-vs-applied operating point.
func (b *Board) ActuatorState() ActuatorState {
	return ActuatorState{
		BigCores:         b.bigCores,
		LittleCores:      b.littleCores,
		BigFreqGHz:       b.bigFreq,
		LittleFreqGHz:    b.littleFreq,
		EffBigFreqGHz:    b.EffectiveBigFreq(),
		EffLittleFreqGHz: b.EffectiveLittleFreq(),
		ThreadsBig:       b.place.ThreadsBig,
	}
}

// BigCores returns the hotplug state of the big cluster.
func (b *Board) BigCores() int { return b.bigCores }

// LittleCores returns the hotplug state of the little cluster.
func (b *Board) LittleCores() int { return b.littleCores }

// BigFreq returns the requested big-cluster frequency (GHz).
func (b *Board) BigFreq() float64 { return b.bigFreq }

// LittleFreq returns the requested little-cluster frequency (GHz).
func (b *Board) LittleFreq() float64 { return b.littleFreq }

// EffectiveBigFreq returns the frequency after firmware throttle caps and
// the fleet budget-governor ceiling (the minimum of all three authorities).
func (b *Board) EffectiveBigFreq() float64 {
	return math.Min(math.Min(b.bigFreq, b.tmu.bigCap), b.budget.capGHz)
}

// EffectiveLittleFreq returns the little frequency after firmware caps.
func (b *Board) EffectiveLittleFreq() float64 { return math.Min(b.littleFreq, b.tmu.littleCap) }

// Place sets the thread placement. Changing the placement charges the
// migration penalty for every thread whose cluster assignment changes.
func (b *Board) Place(p Placement) {
	if p.ThreadsPerBigCore < 1 {
		p.ThreadsPerBigCore = 1
	}
	if p.ThreadsPerLittleCore < 1 {
		p.ThreadsPerLittleCore = 1
	}
	if p.ThreadsBig < 0 {
		p.ThreadsBig = 0
	}
	if p.ThreadsLittle < 0 {
		p.ThreadsLittle = 0
	}
	moved := absInt(p.ThreadsBig - b.place.ThreadsBig)
	b.migStallS += float64(moved) * b.cfg.MigrationPenalty.Seconds()
	b.place = p
}

// ChargeMigrations charges the migration/cache-warmup penalty for n thread
// migrations that occurred without a placement-count change (e.g. a
// round-robin scheduler rotating thread-to-core assignments).
func (b *Board) ChargeMigrations(n int) {
	if n > 0 {
		b.migStallS += float64(n) * b.cfg.MigrationPenalty.Seconds()
	}
}

// Placement returns the current thread placement.
func (b *Board) Placement() Placement { return b.place }

// TimeS returns the simulated wall-clock time in seconds.
func (b *Board) TimeS() float64 { return b.nowS }

// EnergyJ returns the cumulative energy in joules.
func (b *Board) EnergyJ() float64 { return b.energyJ }

// TempC returns the instantaneous hot-spot temperature.
func (b *Board) TempC() float64 { return b.tempC }

// clusterState captures the per-step operating point of one cluster.
type clusterState struct {
	threads   int
	busyCores int
	tpc       float64 // threads per busy core
	rateGIPS  float64 // instructions per second (billions)
	powerW    float64
}

// evalCluster computes instruction rate and power for one cluster.
func (b *Board) evalCluster(c ClusterConfig, coresOn int, freq float64, threads int,
	tpcWanted float64, ipc, memBound float64, totalBusy int) clusterState {

	st := clusterState{threads: threads}
	v := c.VoltBase + c.VoltPerGHz*freq

	busy := 0
	if threads > 0 {
		busy = int(math.Ceil(float64(threads) / tpcWanted))
		busy = clampInt(busy, 1, coresOn)
	}
	st.busyCores = busy
	if busy > 0 {
		st.tpc = float64(threads) / float64(busy)
	}

	// Memory-boundedness inflated by bandwidth contention across all busy
	// cores on the chip.
	mb := memBound * (1 + b.cfg.MemContentionPerCore*float64(maxInt(totalBusy-1, 0)))
	if mb > 0.92 {
		mb = 0.92
	}

	// Roofline per-core rate: ipc*f at the reference frequency, saturating
	// toward the bandwidth ceiling as f grows.
	var ratePerCore float64
	if busy > 0 && ipc > 0 {
		ratePerCore = ipc * freq / ((1 - mb) + mb*freq/c.RefFreqGHz)
	}
	mux := 1.0
	if st.tpc > 1 {
		mux = math.Pow(b.cfg.MuxEfficiency, st.tpc-1)
	}
	st.rateGIPS = float64(busy) * ratePerCore * mux

	// Power: busy cores burn full dynamic power weighted by stall activity;
	// idle-but-on cores burn the idle activity; all on cores leak.
	activity := (1 - mb) + mb*c.StallPowerFactor
	pBusy := float64(busy) * c.CdynWPerV2GHz * v * v * freq * activity
	pIdle := float64(coresOn-busy) * c.CdynWPerV2GHz * v * v * freq * c.IdleActivity
	leak := float64(coresOn) * c.StaticBaseW * math.Exp((b.tempC-50)/c.StaticTempScaleC)
	st.powerW = pBusy + pIdle + leak
	return st
}

// Run advances the board by dt while executing w, and returns the sensor
// view a controller invoked at the end of the interval would observe.
func (b *Board) Run(w workload.Workload, dt time.Duration) Sensors {
	stepS := b.cfg.SimStep.Seconds()
	nSteps := int(math.Round(dt.Seconds() / stepS))
	if nSteps < 1 {
		nSteps = 1
	}
	var instT, instB, instL float64
	for i := 0; i < nSteps; i++ {
		p := w.Profile()
		threads := p.Threads

		threadsBig := clampInt(b.place.ThreadsBig, 0, threads)
		threadsLittle := threads - threadsBig

		fBig := b.EffectiveBigFreq()
		fLittle := b.EffectiveLittleFreq()

		// First pass estimates busy cores for contention.
		estBusyBig := 0
		if threadsBig > 0 {
			estBusyBig = clampInt(int(math.Ceil(float64(threadsBig)/b.place.ThreadsPerBigCore)), 1, b.bigCores)
		}
		estBusyLittle := 0
		if threadsLittle > 0 {
			estBusyLittle = clampInt(int(math.Ceil(float64(threadsLittle)/b.place.ThreadsPerLittleCore)), 1, b.littleCores)
		}
		totalBusy := estBusyBig + estBusyLittle

		big := b.evalCluster(b.cfg.Big, b.bigCores, fBig, threadsBig,
			b.place.ThreadsPerBigCore, p.IPCBig, p.MemBound, totalBusy)
		little := b.evalCluster(b.cfg.Little, b.littleCores, fLittle, threadsLittle,
			b.place.ThreadsPerLittleCore, p.IPCLittle, p.MemBound, totalBusy)

		// Migration stalls eat into this step's execution.
		execS := stepS
		if b.migStallS > 0 {
			if b.migStallS >= stepS {
				b.migStallS -= stepS
				execS = 0
			} else {
				execS = stepS - b.migStallS
				b.migStallS = 0
			}
		}

		gB := big.rateGIPS * execS
		gL := little.rateGIPS * execS
		w.Advance(gB + gL)
		instB += gB
		instL += gL
		instT += gB + gL

		pTotal := big.powerW + little.powerW + b.cfg.BasePowerW
		b.energyJ += pTotal * stepS
		b.windowBigE += big.powerW * stepS
		b.windowLittleE += little.powerW * stepS

		// Thermal RC integration.
		tss := b.cfg.AmbientC + b.cfg.ThermalRCW*pTotal
		b.tempC += stepS * (tss - b.tempC) / b.cfg.ThermalTauS

		b.nowS += stepS

		// Power sensors latch the window average every sensor period.
		if b.nowS-b.windowStartS >= b.cfg.PowerSensorPeriod.Seconds()-1e-9 {
			win := b.nowS - b.windowStartS
			b.sensedBigW = b.windowBigE / win
			b.sensedLittleW = b.windowLittleE / win
			b.windowBigE, b.windowLittleE = 0, 0
			b.windowStartS = b.nowS
		}

		// Firmware emergency management sees instantaneous physics.
		b.tmu.step(b, big.powerW, little.powerW, stepS)
		// The budget governor enforces the board-level power cap on the
		// total draw, after (and never overriding) the emergency paths.
		b.budget.step(b, pTotal, stepS)
	}
	b.instTotal += instT
	b.instBig += instB
	b.instLittle += instL

	intervalS := float64(nSteps) * stepS
	s := Sensors{
		TimeS:            b.nowS,
		BigPowerW:        b.sensedBigW,
		LittlePowerW:     b.sensedLittleW,
		TempC:            b.tempC,
		BIPS:             instT / intervalS,
		BIPSBig:          instB / intervalS,
		BIPSLittle:       instL / intervalS,
		Throttled:        b.tmu.engagedBig || b.tmu.engagedLittle || b.tmu.engagedTemp,
		ThermalThrottled: b.tmu.engagedTemp,
		EmergencyEvents:  b.tmu.events,
		PowerCapW:        b.budget.capW,
		BudgetThrottled:  b.budget.engaged,
	}
	if b.sensorTap != nil {
		s = b.sensorTap.TapSensors(s)
	}
	return s
}

// String summarizes the board state for logs.
func (b *Board) String() string {
	return fmt.Sprintf("board[t=%.1fs big=%dc@%.1fGHz little=%dc@%.1fGHz T=%.1fC E=%.1fJ]",
		b.nowS, b.bigCores, b.bigFreq, b.littleCores, b.littleFreq, b.tempC, b.energyJ)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func absInt(a int) int {
	if a < 0 {
		return -a
	}
	return a
}
