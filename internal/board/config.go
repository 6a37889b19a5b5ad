// Package board simulates the paper's experimental platform: an ODROID XU3
// with a Samsung Exynos 5422 (ARM big.LITTLE: 4 out-of-order Cortex-A15 "big"
// cores and 4 in-order Cortex-A7 "little" cores), on-board power sensors
// that update every 260 ms, on-chip temperature sensors, per-cluster DVFS in
// 0.1 GHz steps, CPU hotplug, and the firmware emergency power/thermal
// heuristics that throttle the clusters when preset thresholds are exceeded
// for extended periods (paper §IV, §V-A).
//
// The simulator integrates a nonlinear power model (CV²f dynamic power with
// a frequency-dependent voltage curve, temperature-dependent leakage), a
// first-order RC thermal model, and a roofline performance model in which
// per-thread throughput saturates with frequency according to each
// workload's memory-boundedness. Controllers interact with the board only
// through the actuators and sensors the real board exposes.
package board

import "time"

// ClusterConfig describes one CPU cluster.
type ClusterConfig struct {
	// Name labels the cluster ("big" or "little") in logs.
	Name string
	// MaxCores is the number of physical cores in the cluster.
	MaxCores int

	// DVFS range and step (GHz).
	FreqMinGHz, FreqMaxGHz, FreqStepGHz float64

	// Voltage curve V(f) = VoltBase + VoltPerGHz*f, in volts.
	VoltBase, VoltPerGHz float64

	// CdynWPerV2GHz is the per-core effective switching capacitance:
	// dynamic power per core = Cdyn * V^2 * f * activity.
	CdynWPerV2GHz float64

	// StaticBaseW is the per-core leakage at 50°C; leakage scales as
	// exp((T-50)/StaticTempScaleC).
	StaticBaseW float64
	// StaticTempScaleC is the exponential temperature scale of leakage (°C).
	StaticTempScaleC float64

	// RefFreqGHz anchors the memory roofline: at the reference frequency a
	// workload's nominal IPC holds exactly.
	RefFreqGHz float64

	// StallPowerFactor is the fraction of dynamic power burned while a core
	// is stalled on memory.
	StallPowerFactor float64

	// IdleActivity is the dynamic-power activity of a powered-on idle core
	// (clock gating leaves a residual).
	IdleActivity float64
}

// Config holds the full board model.
type Config struct {
	// Big and Little describe the two CPU clusters.
	Big, Little ClusterConfig

	// SimStep is the physics integration step.
	SimStep time.Duration

	// AmbientC is the ambient temperature in the first-order thermal model
	// dT/dt = (Ambient + R*P_total - T)/Tau.
	AmbientC    float64
	ThermalRCW  float64 // thermal resistance, °C per watt
	ThermalTauS float64 // thermal time constant, seconds
	BasePowerW  float64 // memory + SoC uncore power

	// PowerSensorPeriod is the update period of the on-board INA231-style
	// power sensors (260 ms on the XU3).
	PowerSensorPeriod time.Duration

	// TempEmergencyC is the firmware thermal emergency threshold (paper
	// §V-A: the evaluation limits are chosen just below the firmware's).
	TempEmergencyC         float64
	BigPowerEmergencyW     float64       // big-cluster power emergency threshold
	LittlePowerEmergencyW  float64       // little-cluster power emergency threshold
	EmergencyHold          time.Duration // sustained violation before engaging
	EmergencyStepPeriod    time.Duration // per-step throttle/release cadence
	EmergencyReleaseDelay  time.Duration // below-threshold time before release
	EmergencyHysteresisPct float64       // release hysteresis fraction

	// Budget-governor dynamics for the fleet power cap (SetPowerCapW). The
	// cap is enforced on total board power with the same shape as the
	// firmware emergency heuristics: a sustained violation of BudgetHold
	// engages a big-cluster frequency ceiling stepped down every
	// BudgetStepPeriod, released one step at a time after the power has
	// stayed BudgetHysteresisPct under the cap for BudgetReleaseDelay. A
	// zero value for any knob falls back to the corresponding Emergency*
	// parameter. The budget hold is shorter than the emergency hold by
	// default: a budget overshoot is an efficiency matter, not a safety
	// one, and a fleet reallocation should bite within a control interval.
	BudgetHold          time.Duration // sustained-over-cap time before the governor engages
	BudgetStepPeriod    time.Duration // per-step ceiling walk cadence while engaged
	BudgetReleaseDelay  time.Duration // under-cap time before releasing one step
	BudgetHysteresisPct float64       // release hysteresis fraction below the cap

	// MigrationPenalty is the execution stall charged per migrated thread.
	MigrationPenalty time.Duration

	// DVFSTransition is the cluster-wide stall charged per frequency change
	// (PLL relock / voltage ramp), as on real cpufreq transitions. The
	// default calibration leaves it zero — at the 500 ms control interval a
	// sub-millisecond stall is beneath the simulator's resolution — but the
	// knob exists for studies of fast control loops.
	DVFSTransition time.Duration

	// MemContentionPerCore inflates memory-boundedness per additional busy
	// core (shared-bandwidth contention).
	MemContentionPerCore float64

	// MuxEfficiency is the per-extra-thread multiplexing efficiency when
	// multiple threads share a core.
	MuxEfficiency float64
}

// DefaultConfig returns the ODROID XU3 calibration. Dynamic/static power
// coefficients are set so that the big cluster draws ≈7 W at 4 cores/2.0 GHz
// under a compute-bound load (well above the 3.3 W evaluation cap, as on the
// real board) and the little cluster ≈0.35 W at 4 cores/1.4 GHz, with the
// steady-state hot-spot temperature crossing 79 °C when the big cluster runs
// uncapped.
func DefaultConfig() Config {
	return Config{
		Big: ClusterConfig{
			Name:             "big",
			MaxCores:         4,
			FreqMinGHz:       0.2,
			FreqMaxGHz:       2.0,
			FreqStepGHz:      0.1,
			VoltBase:         0.90,
			VoltPerGHz:       0.25,
			CdynWPerV2GHz:    0.42,
			StaticBaseW:      0.12,
			StaticTempScaleC: 35,
			RefFreqGHz:       1.0,
			StallPowerFactor: 0.35,
			IdleActivity:     0.04,
		},
		Little: ClusterConfig{
			Name:             "little",
			MaxCores:         4,
			FreqMinGHz:       0.2,
			FreqMaxGHz:       1.4,
			FreqStepGHz:      0.1,
			VoltBase:         0.90,
			VoltPerGHz:       0.15,
			CdynWPerV2GHz:    0.040,
			StaticBaseW:      0.010,
			StaticTempScaleC: 35,
			RefFreqGHz:       0.8,
			StallPowerFactor: 0.35,
			IdleActivity:     0.04,
		},
		SimStep:                10 * time.Millisecond,
		AmbientC:               45,
		ThermalRCW:             8.5,
		ThermalTauS:            10.0,
		BasePowerW:             0.6,
		PowerSensorPeriod:      260 * time.Millisecond,
		TempEmergencyC:         80,
		BigPowerEmergencyW:     3.5,
		LittlePowerEmergencyW:  0.36,
		EmergencyHold:          1 * time.Second,
		EmergencyStepPeriod:    200 * time.Millisecond,
		EmergencyReleaseDelay:  2 * time.Second,
		EmergencyHysteresisPct: 0.10,
		BudgetHold:             400 * time.Millisecond,
		BudgetStepPeriod:       200 * time.Millisecond,
		BudgetReleaseDelay:     1 * time.Second,
		BudgetHysteresisPct:    0.05,
		MigrationPenalty:       20 * time.Millisecond,
		MemContentionPerCore:   0.05,
		MuxEfficiency:          0.90,
	}
}
