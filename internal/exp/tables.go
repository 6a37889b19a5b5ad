package exp

import (
	"fmt"
	"strings"

	"yukta/internal/series"
)

// TableI renders the paper's design-space taxonomy (Table I), with the
// choices Yukta selects marked by asterisks.
func TableI() string {
	t := &series.Table{Header: []string{"Axis", "Choices (* = Yukta's)"}}
	t.AddRow("Modeling", "White Box (Analytical), *Black Box (Data Driven)*, Gray Box")
	t.AddRow("Mode", "SISO, MISO, SIMO, *MIMO*")
	t.AddRow("Organization", "Decoupled, Centralized, Cascaded, *Collaborative*")
	t.AddRow("Approach", "Classical, *Robust*, Gain Scheduling, Adaptive")
	t.AddRow("Type", "PID, LQG, MPC, *SSV*")
	var sb strings.Builder
	sb.WriteString("Table I: space of design choices from control theory\n")
	t.Render(&sb)
	return sb.String()
}

// TableII renders the hardware controller's design parameters (paper
// Table II).
func TableII() string {
	t := &series.Table{Header: []string{"Input", "Weight", "Allowed values"}}
	t.AddRow("#big cores", "1", "1..4")
	t.AddRow("#little cores", "1", "1..4")
	t.AddRow("frequency_big", "1", "0.2..2.0 GHz, 0.1 steps")
	t.AddRow("frequency_little", "1", "0.2..1.4 GHz, 0.1 steps")
	var sb strings.Builder
	sb.WriteString("Table II: hardware controller (goal: minimize E×D s.t. power/temp limits)\n")
	t.Render(&sb)
	o := &series.Table{Header: []string{"Output", "Bound"}}
	o.AddRow("Performance (BIPS)", "±20% of range")
	o.AddRow("Power_big", "±10% of range")
	o.AddRow("Power_little", "±10% of range")
	o.AddRow("Temperature", "±10% of range")
	o.Render(&sb)
	sb.WriteString("External signals: #threads_big, threads/busy big core, threads/busy little core\n")
	sb.WriteString("Uncertainty guardband: ±40%\n")
	return sb.String()
}

// TableIII renders the software controller's design parameters (paper
// Table III).
func TableIII() string {
	t := &series.Table{Header: []string{"Input", "Weight", "Allowed values"}}
	t.AddRow("#threads_big", "2", "0..8")
	t.AddRow("threads/busy big core", "2", "1..4, 0.5 steps")
	t.AddRow("threads/busy little core", "2", "1..4, 0.5 steps")
	var sb strings.Builder
	sb.WriteString("Table III: software controller (goal: minimize E×D)\n")
	t.Render(&sb)
	o := &series.Table{Header: []string{"Output", "Bound"}}
	o.AddRow("Performance_little (BIPS)", "±20% of range")
	o.AddRow("Performance_big (BIPS)", "±20% of range")
	o.AddRow("ΔSpareCompute (big-little)", "±20% of range")
	o.Render(&sb)
	sb.WriteString("External signals: #big cores, #little cores, frequency_big, frequency_little\n")
	sb.WriteString("Uncertainty guardband: ±50%\n")
	return sb.String()
}

// TableIV renders the scheme descriptions (paper Table IV plus the §VI-B
// LQG schemes).
func TableIV() string {
	t := &series.Table{Header: []string{"Scheme", "OS controller", "HW controller"}}
	t.AddRow("(a) Coordinated heuristic",
		"HMP-derived big-first scheduler; packs ≤2 threads/big core; rate-limited balancing",
		"races frequency/cores while safe, crude fractional backoff on violations")
	t.AddRow("(b) Decoupled heuristic",
		"round-robin, type-blind, reshuffles every period",
		"Performance governor: maximum always; firmware handles violations")
	t.AddRow("(c) Yukta: HW SSV+OS heuristic",
		"same as (a)",
		"SSV controller of Table II + E×D optimizer")
	t.AddRow("(d) Yukta: HW SSV+OS SSV",
		"SSV controller of Table III + E×D optimizer",
		"SSV controller of Table II + E×D optimizer")
	t.AddRow("Decoupled HW LQG+OS LQG",
		"LQG (no external signals) + optimizer",
		"LQG (no external signals) + optimizer")
	t.AddRow("Monolithic LQG",
		"single LQG over all 7 actuators and 7 outputs + optimizers", "(same controller)")
	var sb strings.Builder
	sb.WriteString("Table IV: controller schemes\n")
	t.Render(&sb)
	return sb.String()
}

// RenderGuardbandPoints renders the Figure 16(a) sweep.
func RenderGuardbandPoints(points []GuardbandPoint) string {
	t := &series.Table{Header: []string{"guardband", "guaranteed bounds (rel. ±40%)", "SSV", "penalty"}}
	for _, p := range points {
		t.AddRow(
			fmt.Sprintf("±%.0f%%", p.Guardband*100),
			fmt.Sprintf("%.2f×", p.BoundsGrowth),
			fmt.Sprintf("%.2f", p.SSV),
			fmt.Sprintf("%g", p.Penalty),
		)
	}
	var sb strings.Builder
	sb.WriteString("Figure 16(a): guaranteed output deviation bounds vs uncertainty guardband\n")
	t.Render(&sb)
	return sb.String()
}

// RenderHWCost renders the §VI-D hardware-cost summary.
func RenderHWCost(h *HWCost) string {
	var sb strings.Builder
	sb.WriteString("§VI-D hardware implementation of the HW SSV controller\n")
	fmt.Fprintf(&sb, "  state dimension N = %d (I=%d, O=%d, E=%d)\n", h.StateDim, h.Inputs, h.Outputs, h.Exts)
	fmt.Fprintf(&sb, "  fixed-point operations per invocation ≈ %d\n", h.OpsPerInvocation)
	fmt.Fprintf(&sb, "  storage ≈ %.1f KB\n", float64(h.StorageBytes)/1024)
	return sb.String()
}
