package exp

import (
	"fmt"

	"yukta/internal/core"
	"yukta/internal/series"
	"yukta/internal/workload"
)

// fourSchemes returns the Table IV schemes (a)-(d) in order.
func (c *Context) fourSchemes() []core.Scheme {
	return []core.Scheme{
		c.P.CoordinatedHeuristic(),
		c.P.DecoupledHeuristic(),
		c.P.YuktaHWSSVOSHeuristic(core.DefaultHWParams()),
		c.P.YuktaFullSSV(core.DefaultHWParams(), core.DefaultOSParams()),
	}
}

// lqgSchemes returns the §VI-B comparison set.
func (c *Context) lqgSchemes() []core.Scheme {
	return []core.Scheme{
		c.P.CoordinatedHeuristic(),
		c.P.DecoupledLQG(),
		c.P.MonolithicLQG(),
		c.P.YuktaFullSSV(core.DefaultHWParams(), core.DefaultOSParams()),
	}
}

// allSchemes returns every implemented scheme (for Figure 14).
func (c *Context) allSchemes() []core.Scheme {
	return []core.Scheme{
		c.P.CoordinatedHeuristic(),
		c.P.DecoupledHeuristic(),
		c.P.YuktaHWSSVOSHeuristic(core.DefaultHWParams()),
		c.P.YuktaFullSSV(core.DefaultHWParams(), core.DefaultOSParams()),
		c.P.DecoupledLQG(),
		c.P.MonolithicLQG(),
	}
}

// runMatrix executes every scheme on every app and fills two BarSets (E×D
// and execution time).
func (c *Context) runMatrix(title string, schemes []core.Scheme, apps []string,
	loader func(string) (workload.Workload, error)) (exd, times *BarSet, err error) {

	res, err := c.runGrid(schemes, apps, loader, c.scalarOpts(), nil)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(schemes))
	exd = &BarSet{Title: title + " E×D", Metric: "Energy×Delay", Apps: apps, Schemes: names,
		Values: map[string]map[string]float64{}}
	times = &BarSet{Title: title + " execution time", Metric: "seconds", Apps: apps, Schemes: names,
		Values: map[string]map[string]float64{}}
	for si, sch := range schemes {
		names[si] = sch.Name
		exd.Values[sch.Name] = map[string]float64{}
		times.Values[sch.Name] = map[string]float64{}
		for ai, app := range apps {
			r := res[si*len(apps)+ai]
			exd.Values[sch.Name][app] = r.ExD
			times.Values[sch.Name][app] = r.TimeS
		}
	}
	return exd, times, nil
}

func appLoader(name string) (workload.Workload, error) {
	return workload.Lookup(name)
}

// Fig9 reproduces Figure 9: E×D (a) and execution time (b) of the four
// two-layer schemes over the given applications (pass nil for the full
// evaluation suite).
func (c *Context) Fig9(apps []string) (exd, times *BarSet, err error) {
	if apps == nil {
		apps = EvalApps()
	}
	return c.runMatrix("Figure 9", c.fourSchemes(), apps, appLoader)
}

// Fig10 reproduces Figure 10: the big-cluster power of blackscholes versus
// time under the four schemes.
func (c *Context) Fig10() (*TraceSet, error) {
	return c.traceFigure("Figure 10: big-cluster power (W), blackscholes", c.fourSchemes(),
		func(r *core.RunResult) *series.Series { return r.BigPower })
}

// Fig11 reproduces Figure 11: the performance (BIPS) of blackscholes versus
// time under the four schemes.
func (c *Context) Fig11() (*TraceSet, error) {
	return c.traceFigure("Figure 11: performance (BIPS), blackscholes", c.fourSchemes(),
		func(r *core.RunResult) *series.Series { return r.Perf })
}

func (c *Context) traceFigure(title string, schemes []core.Scheme,
	pick func(*core.RunResult) *series.Series) (*TraceSet, error) {

	res, err := c.runGrid(schemes, []string{"blackscholes"}, appLoader, c.traceOpts(), nil)
	if err != nil {
		return nil, err
	}
	out := &TraceSet{Title: title, Series: map[string]*series.Series{}}
	for i, sch := range schemes {
		out.Order = append(out.Order, sch.Name)
		out.Series[sch.Name] = pick(res[i])
	}
	return out, nil
}

// Fig12and13 reproduces Figures 12 and 13: E×D and execution time of the
// LQG-based designs versus the baseline and Yukta (pass nil for the full
// suite).
func (c *Context) Fig12and13(apps []string) (exd, times *BarSet, err error) {
	if apps == nil {
		apps = EvalApps()
	}
	return c.runMatrix("Figures 12/13", c.lqgSchemes(), apps, appLoader)
}

// Fig14 reproduces Figure 14: E×D of the heterogeneous mixes under every
// scheme.
func (c *Context) Fig14() (*BarSet, error) {
	mixes := workload.HeterogeneousMixes()
	apps := make([]string, len(mixes))
	byName := map[string]*workload.Mix{}
	for i, m := range mixes {
		apps[i] = m.Name()
		byName[m.Name()] = m
	}
	loader := func(name string) (workload.Workload, error) {
		m, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("exp: unknown mix %q", name)
		}
		// Clone per run: handing out the shared *Mix would let every scheme
		// (and, under the worker pool, concurrent runs) advance the same
		// progress state.
		return m.Clone(), nil
	}
	exd, _, err := c.runMatrix("Figure 14 (heterogeneous mixes)", c.allSchemes(), apps, loader)
	return exd, err
}
