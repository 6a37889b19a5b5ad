package exp

import (
	"fmt"
	"math"
	"strings"

	"yukta/internal/core"
	"yukta/internal/fault"
	"yukta/internal/series"
)

// DefaultIntensities is the fault-intensity grid the robustness sweep uses
// when the caller passes none (the clean baseline at intensity 0 is always
// run in addition).
func DefaultIntensities() []float64 { return []float64{0.25, 0.5, 1.0} }

// robustSchemes returns the controller families the fault sweep compares:
// the heuristic baseline, the LQG baseline and the full SSV stack — plus,
// when Context.Supervise is set, the SSV stack under the supervisory safety
// layer.
func (c *Context) robustSchemes() []core.Scheme {
	schemes := []core.Scheme{
		c.P.CoordinatedHeuristic(),
		c.P.MonolithicLQG(),
		c.P.YuktaFullSSV(core.DefaultHWParams(), core.DefaultOSParams()),
	}
	if c.Supervise {
		schemes = append(schemes, c.P.SupervisedYuktaSSV(core.DefaultHWParams(), core.DefaultOSParams()))
	}
	return schemes
}

// RobustnessTable is the scheme × fault-intensity degradation table the
// robustness sweep produces. Degradation is each scheme's faulted E×D over
// its own clean E×D (geometric mean across apps), so 1.00 means the faults
// cost nothing and 1.30 means E×D inflated 30%.
type RobustnessTable struct {
	// Title heads the rendered table.
	Title string
	// Seed is the fault campaign seed the table was produced with.
	Seed int64
	// Intensities is the swept fault-intensity grid (clean = 0 is implicit).
	Intensities []float64
	// Schemes and Apps give the row and aggregation sets in run order.
	Schemes []string
	Apps    []string
	// CleanExD[scheme] is the geometric-mean clean E×D in J·s.
	CleanExD map[string]float64
	// Degradation[scheme][k] is the geometric-mean E×D ratio at
	// Intensities[k].
	Degradation map[string][]float64
	// Faults[k] totals the injected faults at Intensities[k] across all
	// schemes and apps.
	Faults []fault.Stats
	// Supervised[scheme][k] aggregates the supervisory accounting of a
	// supervised scheme's runs: index 0 is the clean level, then one entry
	// per intensity. Empty for sweeps without supervised schemes, keeping
	// their rendered tables unchanged.
	Supervised map[string][]SupervisorAgg
	// Incomplete counts runs that hit the MaxTime abort instead of
	// finishing their work (their E×D still enters the table, charged at
	// the aborted horizon).
	Incomplete int
}

// Render writes the degradation table, the injected-fault totals and the
// exact reproduction command as aligned text.
func (r *RobustnessTable) Render() string {
	tab := &series.Table{Header: append([]string{"scheme", "clean E×D (J·s)"},
		func() []string {
			h := make([]string, len(r.Intensities))
			for i, s := range r.Intensities {
				h[i] = fmt.Sprintf("×@s=%.2f", s)
			}
			return h
		}()...)}
	for _, sch := range r.Schemes {
		row := []string{sch, fmt.Sprintf("%.0f", r.CleanExD[sch])}
		for _, d := range r.Degradation[sch] {
			row = append(row, fmt.Sprintf("%.3f", d))
		}
		tab.AddRow(row...)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (seed %d, apps: %v)\n", r.Title, r.Seed, r.Apps)
	tab.Render(&sb)
	sb.WriteString("\ninjected faults per intensity (all schemes × apps):\n")
	ft := &series.Table{Header: []string{"s", "dropped", "stale", "held cmds", "skewed cmds", "forced TMU"}}
	for i, s := range r.Intensities {
		f := r.Faults[i]
		ft.AddRow(fmt.Sprintf("%.2f", s), fmt.Sprint(f.DroppedReadings), fmt.Sprint(f.StaleReadings),
			fmt.Sprint(f.HeldCommands), fmt.Sprint(f.SkewedCommands), fmt.Sprint(f.ForcedThrottles))
	}
	ft.Render(&sb)
	if len(r.Supervised) > 0 {
		sb.WriteString("\nsupervisor accounting (trips / time-in-fallback / mean recovery latency):\n")
		st := &series.Table{Header: append([]string{"scheme", "clean"},
			func() []string {
				h := make([]string, len(r.Intensities))
				for i, s := range r.Intensities {
					h[i] = fmt.Sprintf("s=%.2f", s)
				}
				return h
			}()...)}
		for _, sch := range r.Schemes {
			aggs, ok := r.Supervised[sch]
			if !ok {
				continue
			}
			row := []string{sch}
			for _, a := range aggs {
				row = append(row, a.render())
			}
			st.AddRow(row...)
		}
		st.Render(&sb)
	}
	if r.Incomplete > 0 {
		fmt.Fprintf(&sb, "\n%d run(s) aborted at the time limit.\n", r.Incomplete)
	}
	return sb.String()
}

// RobustnessSweep runs every scheme × app at the clean operating point and at
// each fault intensity, and returns the per-scheme degradation table. Pass
// nil apps for the quick four-app subset and nil intensities for
// DefaultIntensities. The injected fault sequences are fully determined by
// (Context.Seed, scheme, app, intensity), so the rendered table is
// byte-identical at any Parallelism setting.
func (c *Context) RobustnessSweep(apps []string, intensities []float64) (*RobustnessTable, error) {
	if apps == nil {
		apps = []string{"gamess", "mcf", "blackscholes", "streamcluster"}
	}
	if intensities == nil {
		intensities = DefaultIntensities()
	}
	schemes := c.robustSchemes()
	// Levels: the clean operating point, then each intensity.
	levels := make([]gridLevel, 1+len(intensities))
	for k, s := range append([]float64{0}, intensities...) {
		levels[k] = gridLevel{
			label: fmt.Sprintf(" at intensity %.2f", s),
			edit:  func(opt *core.RunOptions) { opt.Faults = fault.Preset(c.Seed, s) },
			trace: fmt.Sprintf("robust-s%.2f", s),
		}
	}
	res, err := c.runGrid(schemes, apps, appLoader, c.scalarOpts(), levels)
	if err != nil {
		return nil, err
	}
	rows, incomplete := aggregateSweep(res, len(schemes), len(apps))

	out := &RobustnessTable{
		Title:       "Robustness sweep: E×D degradation vs fault intensity",
		Seed:        c.Seed,
		Intensities: intensities,
		Apps:        apps,
		CleanExD:    map[string]float64{},
		Degradation: map[string][]float64{},
		Faults:      make([]fault.Stats, len(intensities)),
		Incomplete:  incomplete,
	}
	for si, sch := range schemes {
		out.Schemes = append(out.Schemes, sch.Name)
		out.CleanExD[sch.Name] = rows[si].cleanExD
		out.Degradation[sch.Name] = rows[si].degradation
		if rows[si].supervised {
			if out.Supervised == nil {
				out.Supervised = map[string][]SupervisorAgg{}
			}
			out.Supervised[sch.Name] = rows[si].sup
		}
	}
	nPer := len(schemes) * len(apps)
	for k := range intensities {
		tot := &out.Faults[k]
		for _, r := range res[(k+1)*nPer : (k+2)*nPer] {
			tot.DroppedReadings += r.Faults.DroppedReadings
			tot.StaleReadings += r.Faults.StaleReadings
			tot.HeldCommands += r.Faults.HeldCommands
			tot.SkewedCommands += r.Faults.SkewedCommands
			tot.ForcedThrottles += r.Faults.ForcedThrottles
		}
	}
	return out, nil
}

// sweepRow is one scheme's row of a fault-sweep grid, aggregated across
// apps.
type sweepRow struct {
	// cleanExD is the geometric-mean E×D at the clean level.
	cleanExD float64
	// degradation[k] is the geometric mean over apps of the E×D at faulted
	// level k+1 over the same app's clean E×D.
	degradation []float64
	// sup[level] aggregates the supervisory accounting at each level, clean
	// first; supervised reports whether any of the scheme's runs carried it.
	sup        []SupervisorAgg
	supervised bool
}

// aggregateSweep reduces a fault-sweep grid from runGrid (clean level first,
// then the faulted levels) to one row per scheme, and counts the runs that
// hit the MaxTime abort instead of finishing (their E×D still enters the
// rows, charged at the aborted horizon). Cells are read in the sequential
// order, so the float sums do not depend on worker scheduling.
func aggregateSweep(res []*core.RunResult, nSchemes, nApps int) (rows []sweepRow, incomplete int) {
	nPer := nSchemes * nApps
	nLevels := len(res) / nPer
	at := func(level, si, ai int) *core.RunResult { return res[level*nPer+si*nApps+ai] }
	for _, r := range res {
		if !r.Completed {
			incomplete++
		}
	}
	rows = make([]sweepRow, nSchemes)
	for si := range rows {
		row := &rows[si]
		logSum := 0.0
		for ai := 0; ai < nApps; ai++ {
			logSum += math.Log(at(0, si, ai).ExD)
		}
		row.cleanExD = math.Exp(logSum / float64(nApps))
		row.degradation = make([]float64, nLevels-1)
		for k := range row.degradation {
			logSum := 0.0
			for ai := 0; ai < nApps; ai++ {
				logSum += math.Log(at(k+1, si, ai).ExD / at(0, si, ai).ExD)
			}
			row.degradation[k] = math.Exp(logSum / float64(nApps))
		}
		row.sup = make([]SupervisorAgg, nLevels)
		for level := range row.sup {
			for ai := 0; ai < nApps; ai++ {
				if r := at(level, si, ai); r.Supervisor != nil {
					row.sup[level].add(*r.Supervisor, r.IntervalS)
					row.supervised = true
				}
			}
		}
	}
	return rows, incomplete
}
