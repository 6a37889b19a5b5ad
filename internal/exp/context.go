// Package exp is the experiment harness: it contains one driver per table
// and figure of the paper's evaluation (Section VI), each returning the data
// that regenerates the corresponding artifact — the rows of a bar chart
// normalized to the Coordinated heuristic baseline, a set of time series, or
// a sensitivity sweep. The cmd/yukta-bench tool and the repository-level
// benchmarks are thin wrappers over this package.
package exp

import (
	"fmt"
	"strings"
	"time"

	"yukta/internal/board"
	"yukta/internal/core"
	"yukta/internal/obs"
	"yukta/internal/series"
	"yukta/internal/workload"
)

// Context carries the expensive shared state: the identified platform with
// its cached, validated controllers.
type Context struct {
	P *core.Platform

	// Parallelism is the worker count used to fan independent (scheme, app)
	// simulations across goroutines; 0 means runtime.NumCPU(), 1 runs
	// sequentially. Results are always assembled in the sequential order, so
	// rendered figures are identical at any setting.
	Parallelism int

	// Seed is the base seed of the harness's seeded components (fault
	// campaigns and workload disturbances); see Options.Seed.
	Seed int64

	// Supervise adds the supervised SSV scheme to the robustness sweep; see
	// Options.Supervise.
	Supervise bool

	// TraceDir, when non-empty, directs the fault sweeps to write per-run
	// flight-recorder traces here; see Options.TraceDir.
	TraceDir string

	// Metrics is the harness-wide metrics registry threaded into every run
	// and the worker pool, or nil when metrics collection is off; see
	// Options.Metrics.
	Metrics *obs.Registry

	// FleetBudgetW is the per-board share of the fleet power budget used by
	// FleetSweep; 0 means DefaultFleetBoardBudgetW. See Options.FleetBudgetW.
	FleetBudgetW float64

	// FleetTopo is the coordinator topology spec applied to every fleet
	// sweep cell, or "" for the one-level tree; see Options.FleetTopo.
	FleetTopo string
}

// NewContext builds the platform (identification plus model fitting) with
// the default options.
func NewContext() (*Context, error) {
	return NewContextWithOptions(Options{})
}

// NewContextWithOptions builds the platform and applies harness options.
func NewContextWithOptions(opt Options) (*Context, error) {
	p, err := core.NewPlatform(board.DefaultConfig(), core.DefaultIdentifyOptions())
	if err != nil {
		return nil, err
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	c := &Context{
		P:            p,
		Parallelism:  opt.Parallelism,
		Seed:         seed,
		Supervise:    opt.Supervise,
		TraceDir:     opt.TraceDir,
		FleetBudgetW: opt.FleetBudgetW,
		FleetTopo:    opt.FleetTopo,
	}
	if opt.Metrics {
		c.Metrics = obs.NewRegistry()
		p.AttachMetrics(c.Metrics)
	}
	return c, nil
}

// EvalApps returns the evaluation programs in the paper's Figure 9 order:
// SPEC first, then PARSEC.
func EvalApps() []string {
	return append(workload.EvaluationSPEC(), workload.EvaluationPARSEC()...)
}

// runOpts is the standard per-run limit.
func runOpts() core.RunOptions {
	return core.RunOptions{MaxTime: 1500 * time.Second}
}

// scalarOpts is runOpts for drivers that only consume scalar results
// (energy, mean power, completion): the per-run series buffers are skipped
// and the context's metrics registry is attached.
func (c *Context) scalarOpts() core.RunOptions {
	opt := runOpts()
	opt.SkipSeries = true
	opt.Metrics = c.Metrics
	return opt
}

// traceOpts is runOpts with the context's metrics registry attached,
// keeping the series buffers for drivers that plot signals over time.
func (c *Context) traceOpts() core.RunOptions {
	opt := runOpts()
	opt.Metrics = c.Metrics
	return opt
}

// BarSet holds one bar-chart figure: per scheme, per app, a metric value.
// Values are raw (physical); Normalized() converts to the paper's
// baseline-relative bars.
type BarSet struct {
	Title   string
	Metric  string
	Apps    []string
	Schemes []string
	// Values[scheme][app] = metric.
	Values map[string]map[string]float64
}

// Normalized returns Values divided by the first scheme's (the baseline's)
// value for the same app.
func (b *BarSet) Normalized() map[string]map[string]float64 {
	base := b.Values[b.Schemes[0]]
	out := make(map[string]map[string]float64, len(b.Schemes))
	for _, s := range b.Schemes {
		out[s] = make(map[string]float64, len(b.Apps))
		for _, a := range b.Apps {
			if base[a] != 0 {
				out[s][a] = b.Values[s][a] / base[a]
			}
		}
	}
	return out
}

// Averages returns the paper's SAv / PAv / Avg summary values of the
// normalized bars for one scheme: the mean over the SPEC apps present, the
// PARSEC apps present, and all apps present.
func (b *BarSet) Averages(scheme string) (sav, pav, avg float64) {
	norm := b.Normalized()[scheme]
	spec := map[string]bool{}
	for _, a := range workload.EvaluationSPEC() {
		spec[a] = true
	}
	var sSum, pSum float64
	var sN, pN int
	for _, a := range b.Apps {
		v, ok := norm[a]
		if !ok {
			continue
		}
		if spec[a] {
			sSum += v
			sN++
		} else {
			pSum += v
			pN++
		}
	}
	if sN > 0 {
		sav = sSum / float64(sN)
	}
	if pN > 0 {
		pav = pSum / float64(pN)
	}
	if sN+pN > 0 {
		avg = (sSum + pSum) / float64(sN+pN)
	}
	return sav, pav, avg
}

// Render writes the figure as an aligned text table of normalized bars with
// the SAv/PAv/Avg columns.
func (b *BarSet) Render() string {
	tab := &series.Table{Header: append([]string{"scheme"}, append(append([]string{}, b.Apps...), "SAv", "PAv", "Avg")...)}
	norm := b.Normalized()
	for _, s := range b.Schemes {
		row := []string{s}
		for _, a := range b.Apps {
			row = append(row, fmt.Sprintf("%.2f", norm[s][a]))
		}
		sav, pav, avg := b.Averages(s)
		row = append(row, fmt.Sprintf("%.2f", sav), fmt.Sprintf("%.2f", pav), fmt.Sprintf("%.2f", avg))
		tab.AddRow(row...)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%s, normalized to %q)\n", b.Title, b.Metric, b.Schemes[0])
	tab.Render(&sb)
	return sb.String()
}

// TraceSet holds one time-series figure: one series per scheme or variant.
type TraceSet struct {
	Title  string
	Order  []string
	Series map[string]*series.Series
}

// Render draws each trace as an ASCII chart in order.
func (tr *TraceSet) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", tr.Title)
	keys := tr.Order
	if keys == nil {
		keys = series.SortedKeys(tr.Series)
	}
	for _, k := range keys {
		s, ok := tr.Series[k]
		if !ok {
			continue
		}
		st := s.Summarize()
		fmt.Fprintf(&sb, "\n[%s]  mean=%.3g  swings=%d\n", k, st.Mean, st.Oscillations)
		sb.WriteString(s.RenderASCII(72, 9))
	}
	return sb.String()
}
