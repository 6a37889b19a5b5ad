package exp

import (
	"fmt"
	"math"
	"strings"

	"yukta/internal/core"
	"yukta/internal/fault"
	"yukta/internal/series"
	"yukta/internal/supervisor"
	"yukta/internal/workload"
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
	names := make([]string, len(schemes))
	for i, s := range schemes {
		names[i] = s.Name
	}
	if c.workers() > 1 {
		if err := c.warmSchemes(schemes); err != nil {
			return nil, err
		}
	}

	// Jobs: intensity-major (clean level first), then scheme, then app.
	levels := append([]float64{0}, intensities...)
	type cell struct {
		exd       float64
		completed bool
		stats     fault.Stats
		sup       *supervisor.Stats
		intervalS float64
	}
	nPer := len(schemes) * len(apps)
	results := make([]cell, len(levels)*nPer)
	err := c.forEach(len(results), func(i int) error {
		s := levels[i/nPer]
		sch := schemes[(i%nPer)/len(apps)]
		app := apps[i%len(apps)]
		w, err := workload.Lookup(app)
		if err != nil {
			return err
		}
		opt := c.scalarOpts()
		opt.Faults = fault.Preset(c.Seed, s)
		rec := c.attachRecorder(&opt)
		res, err := core.Run(c.P.Cfg, sch, w, opt)
		if err != nil {
			return fmt.Errorf("exp: %s on %s at intensity %.2f: %w", sch.Name, app, s, err)
		}
		if rec != nil {
			stem := fmt.Sprintf("robust-s%.2f-%s-%s", s, cleanName(sch.Name), cleanName(app))
			if err := c.writeTrace(stem, rec); err != nil {
				return err
			}
		}
		results[i] = cell{exd: res.ExD, completed: res.Completed, stats: res.Faults,
			sup: res.Supervisor, intervalS: res.IntervalS}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &RobustnessTable{
		Title:       "Robustness sweep: E×D degradation vs fault intensity",
		Seed:        c.Seed,
		Intensities: intensities,
		Schemes:     names,
		Apps:        apps,
		CleanExD:    map[string]float64{},
		Degradation: map[string][]float64{},
		Faults:      make([]fault.Stats, len(intensities)),
	}
	at := func(level, si, ai int) cell { return results[level*nPer+si*len(apps)+ai] }
	for si, name := range names {
		logSum := 0.0
		for ai := range apps {
			cl := at(0, si, ai)
			if !cl.completed {
				out.Incomplete++
			}
			logSum += math.Log(cl.exd)
		}
		out.CleanExD[name] = math.Exp(logSum / float64(len(apps)))
		degr := make([]float64, len(intensities))
		for k := range intensities {
			logSum := 0.0
			for ai := range apps {
				f := at(k+1, si, ai)
				if !f.completed {
					out.Incomplete++
				}
				logSum += math.Log(f.exd / at(0, si, ai).exd)
			}
			degr[k] = math.Exp(logSum / float64(len(apps)))
		}
		out.Degradation[name] = degr
	}
	for k := range intensities {
		var tot fault.Stats
		for si := range schemes {
			for ai := range apps {
				st := at(k+1, si, ai).stats
				tot.DroppedReadings += st.DroppedReadings
				tot.StaleReadings += st.StaleReadings
				tot.HeldCommands += st.HeldCommands
				tot.SkewedCommands += st.SkewedCommands
				tot.ForcedThrottles += st.ForcedThrottles
			}
		}
		out.Faults[k] = tot
	}
	for si, name := range names {
		supervised := false
		aggs := make([]SupervisorAgg, len(levels))
		for level := range levels {
			for ai := range apps {
				c := at(level, si, ai)
				if c.sup != nil {
					supervised = true
					aggs[level].add(*c.sup, c.intervalS)
				}
			}
		}
		if supervised {
			if out.Supervised == nil {
				out.Supervised = map[string][]SupervisorAgg{}
			}
			out.Supervised[name] = aggs
		}
	}
	return out, nil
}
