// Package obs is the observability layer of the control stack: a
// zero/low-alloc flight recorder that captures one Record per control
// interval (sensor vector, commanded vs applied actuation, supervisory
// state and detector pressures, fault injections, controller step latency)
// with JSONL/CSV export and a terminal timeline renderer, plus a
// stdlib-only metrics registry (counters, gauges, fixed-bucket histograms,
// expvar-published) that aggregates across the parallel experiment pool.
//
// The package deliberately imports nothing from the rest of the repository
// — the runner (internal/core) distills board, fault and supervisor state
// into the flat Record — and nothing beyond the standard library, so it can
// sit underneath every other layer. Everything the recorder emits is
// deterministic: records carry only simulation-derived values, floats are
// formatted with strconv's shortest round-trip representation, and the
// nondeterministic wall-clock step latency is excluded from JSONL export
// unless Recorder.IncludeLatency is set — so per-run JSONL files are
// byte-identical at any experiment parallelism (DESIGN.md §8).
package obs

// Record is one control interval's flight-recorder entry: everything the
// paper's time-series figures plot, plus the supervisory and fault-injection
// state this reproduction adds. It is a flat value struct so the recorder
// ring can store it without per-interval allocation.
//
// Float fields may be NaN under fault injection (dropped sensor readings);
// JSONL export writes non-finite floats as null.
type Record struct {
	// Step is the 0-based control interval index within the run.
	Step int
	// TimeS is the simulated time at the end of the interval, in seconds.
	TimeS float64

	// BigPowerW is the big-cluster power reading the controller saw (post
	// fault taps), in watts.
	BigPowerW float64
	// LittlePowerW is the LITTLE-cluster power reading, in watts.
	LittlePowerW float64
	// TempC is the temperature reading, in °C.
	TempC float64
	// BIPS is the aggregate performance reading, in billions of
	// instructions per second.
	BIPS float64
	// BIPSBig is the big-cluster share of BIPS.
	BIPSBig float64
	// BIPSLittle is the LITTLE-cluster share of BIPS.
	BIPSLittle float64
	// Throttled reports whether firmware emergency throttling was engaged.
	Throttled bool
	// ThermalThrottled reports whether specifically the thermal emergency
	// path was engaged.
	ThermalThrottled bool
	// PowerCapW is the board power budget imposed by the fleet layer this
	// interval (0 = uncapped solo run).
	PowerCapW float64
	// BudgetThrottled reports whether the budget governor was holding
	// frequency down to enforce PowerCapW.
	BudgetThrottled bool

	// CmdBigCores is the commanded (requested) big-cluster core count after
	// the controller stepped.
	CmdBigCores int
	// CmdLittleCores is the commanded LITTLE-cluster core count.
	CmdLittleCores int
	// CmdBigGHz is the commanded big-cluster frequency, in GHz.
	CmdBigGHz float64
	// CmdLittleGHz is the commanded LITTLE-cluster frequency, in GHz.
	CmdLittleGHz float64
	// EffBigGHz is the applied (effective, post-TMU-cap) big-cluster
	// frequency — commanded vs applied divergence is the firmware override
	// the paper's §II warns about.
	EffBigGHz float64
	// EffLittleGHz is the applied LITTLE-cluster frequency, in GHz.
	EffLittleGHz float64
	// ThreadsBig is the number of threads placed on the big cluster.
	ThreadsBig int

	// CtlGuardbandStreak is the active controller's current run of intervals
	// whose deviations exceeded the synthesis' guaranteed bounds (zero for
	// sessions without an SSV/LQG runtime).
	CtlGuardbandStreak int
	// CtlHeldSteps is the cumulative count of intervals the controller
	// runtime skipped because its sensor view was non-finite.
	CtlHeldSteps int
	// CtlRailed reports that the latest raw command sat pinned far beyond
	// the physical actuator range.
	CtlRailed bool
	// CtlNonFinite reports that the latest raw command contained NaN/Inf.
	CtlNonFinite bool

	// SupState names the supervisory state this interval ran under
	// ("nominal", "suspect", "fallback", "recovering"); empty for
	// unsupervised runs.
	SupState string
	// SupTripped reports that this interval confirmed a trip (transfer of
	// authority to the fallback). Summing SupTripped over a run's records
	// reproduces supervisor.Stats.Trips exactly.
	SupTripped bool
	// SupCause names the confirmed trip's cause when SupTripped is set
	// (supervisor.Cause.String()); empty otherwise.
	SupCause string
	// SupReengage reports that quarantine completed this interval and the
	// primary was re-seeded.
	SupReengage bool
	// SupBlockRaise reports that the no-raise authority clamp is armed for
	// the next interval.
	SupBlockRaise bool

	// DetSuspect is the supervisor's consecutive-soft-condition streak.
	DetSuspect int
	// DetRail is the consecutive rail-pinned interval streak.
	DetRail int
	// DetChatter is the worst per-channel reversal count in the chatter
	// window.
	DetChatter int
	// DetDropout is the no-fresh-data interval count in the dropout window.
	DetDropout int
	// DetMismatch is the actuator write-verification failure count in the
	// mismatch window.
	DetMismatch int
	// DetThrottle is the suspicious-throttle interval count in the throttle
	// window.
	DetThrottle int
	// DetCostRatio is the short-window cost EMA over the long-window
	// baseline (the divergence detector's ratio); 0 until the baseline has
	// formed.
	DetCostRatio float64

	// FaultDropped counts sensor readings dropped (NaN) this interval.
	FaultDropped int
	// FaultStale counts sensor readings served stale this interval.
	FaultStale int
	// FaultHeld counts actuator commands held (ignored) this interval.
	FaultHeld int
	// FaultSkewed counts actuator commands skewed this interval.
	FaultSkewed int
	// FaultForced counts forced TMU emergency throttles injected this
	// interval.
	FaultForced int

	// LatencyNS is the wall-clock controller step latency in nanoseconds.
	// It is nondeterministic, so JSONL export omits it unless
	// Recorder.IncludeLatency is set; CSV export always carries it.
	LatencyNS int64
}

// DefaultCapacity is the ring capacity NewRecorder uses when the caller
// passes none. It covers the experiment harness's longest run (1500 s at the
// 500 ms control interval = 3000 intervals) with headroom, so sweeps retain
// every interval and aggregate cross-checks against supervisor.Stats and
// fault.Stats are exact.
const DefaultCapacity = 4096

// Recorder is a fixed-capacity ring buffer of Records. All memory is
// allocated up front in NewRecorder; Add never allocates, so an attached
// recorder adds only a struct copy per control interval to the hot loop.
// A Recorder belongs to exactly one run and is not safe for concurrent use
// (the experiment pool attaches one fresh Recorder per run).
type Recorder struct {
	// IncludeLatency makes WriteJSONL emit the lat_ns field. It is off by
	// default because wall-clock latency is nondeterministic and would break
	// the byte-identical-at-any-parallelism guarantee of the JSONL export;
	// latency is still always available via CSV export and the metrics
	// registry's per-scheme histograms.
	IncludeLatency bool

	ring[Record]
}

// NewRecorder returns a recorder retaining the last capacity records
// (DefaultCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	return &Recorder{ring: newRing[Record](capacity)}
}

// ring is the fixed-capacity ring buffer Recorder and FleetRecorder embed.
// All memory is allocated in newRing; Add never allocates.
type ring[T any] struct {
	buf   []T
	total int
}

// newRing returns a ring retaining the last capacity records
// (DefaultCapacity when capacity <= 0).
func newRing[T any](capacity int) ring[T] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return ring[T]{buf: make([]T, capacity)}
}

// Add appends one interval's record, overwriting the oldest retained record
// once the ring is full. It performs no allocation.
func (r *ring[T]) Add(rec T) {
	r.buf[r.total%len(r.buf)] = rec
	r.total++
}

// Len returns the number of records currently retained.
func (r *ring[T]) Len() int {
	if r.total < len(r.buf) {
		return r.total
	}
	return len(r.buf)
}

// Total returns the number of records ever added.
func (r *ring[T]) Total() int { return r.total }

// Dropped returns how many early records the ring has overwritten.
func (r *ring[T]) Dropped() int {
	if d := r.total - len(r.buf); d > 0 {
		return d
	}
	return 0
}

// At returns the i-th oldest retained record (0 <= i < Len()).
func (r *ring[T]) At(i int) T {
	return r.buf[(r.total-r.Len()+i)%len(r.buf)]
}
