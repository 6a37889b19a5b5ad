package exp

import (
	"fmt"
	"runtime"

	"yukta/internal/core"
	"yukta/internal/obs"
	"yukta/internal/pool"
	"yukta/internal/workload"
)

// Options configures the experiment harness.
type Options struct {
	// Parallelism is the number of worker goroutines the drivers use to fan
	// independent (scheme, app) simulations out. 0 means runtime.NumCPU();
	// 1 runs every experiment sequentially.
	Parallelism int

	// Seed is the base seed for every seeded component of the harness (the
	// robustness sweep's fault campaign and its workload disturbances). Runs
	// derive their own streams from it, so one seed fixes every random draw
	// in the harness regardless of parallelism. 0 means seed 1.
	Seed int64

	// Supervise adds the supervised SSV scheme (the supervisory safety layer
	// wrapping the full SSV stack) to the robustness sweep and enables the
	// supervisor-accounting section of its table.
	Supervise bool

	// TraceDir, when non-empty, makes the fault sweeps attach a flight
	// recorder to every run and write one <stem>.jsonl decision log plus a
	// <stem>.timeline.txt rendering per (level, scheme, app) into this
	// directory. Traces are byte-identical at any Parallelism.
	TraceDir string

	// Metrics, when true, creates an obs.Registry on the Context and threads
	// it through every run and the worker pool, accumulating step-latency
	// histograms, cache hit rates, fault/trip counters and pool occupancy.
	Metrics bool

	// FleetBudgetW overrides the per-board share of the shared fleet power
	// budget used by FleetSweep; 0 means DefaultFleetBoardBudgetW.
	FleetBudgetW float64

	// FleetTopo, when non-empty, runs every fleet sweep cell hierarchically
	// under this coordinator topology (fleet.ParseTopology grammar, e.g.
	// "4x8" or "root=a,b;a=4;b=4"). The topology's board count must equal
	// the sweep's fleet size. Empty runs the one-level tree: a single
	// coordinator over every board.
	FleetTopo string
}

// workers resolves the context's parallelism setting to a concrete count.
func (c *Context) workers() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.NumCPU()
}

// forEach is the Context-level fan-out: it runs fn(0) … fn(n-1) on the
// context's worker count, metering the pool into its registry (nil when
// metrics are off). Each simulation is independent (fresh board, fresh
// workload clone, per-board seeded RNG), so callers write results into index
// i of a preallocated slice and assemble them in the original order
// afterwards — the rendered tables come out byte-identical to a sequential
// run.
func (c *Context) forEach(n int, fn func(i int) error) error {
	return pool.ForEachMetered(c.workers(), n, c.Metrics, fn)
}

// warmSchemes builds one session per scheme concurrently before a run grid
// fans out. Controller synthesis is the expensive part of a session and is
// single-flighted in the Platform caches, so without this step every worker
// that picks up the first scheme's jobs would block on the same cache entry;
// warming instead synthesizes the distinct controllers in parallel, once
// each.
func (c *Context) warmSchemes(schemes []core.Scheme) error {
	return c.forEach(len(schemes), func(i int) error {
		if _, err := schemes[i].New(); err != nil {
			return fmt.Errorf("exp: warming scheme %q: %w", schemes[i].Name, err)
		}
		return nil
	})
}

// gridLevel is one operating point of a run grid.
type gridLevel struct {
	// label follows "<scheme> on <app>" in the cell's error text.
	label string
	// edit adjusts the base options of every cell at this level (the fault
	// plan); nil runs the base options.
	edit func(*core.RunOptions)
	// trace, when non-empty and the context has a TraceDir, attaches a
	// flight recorder to every cell and writes it as
	// <trace>-<scheme>-<app>.
	trace string
}

// runGrid is the harness's one fan-out: it runs every scheme on every app at
// every level (nil levels means one plain level) and returns the results
// level-major, then scheme, then app. The cells are independent — each gets
// a fresh board, a fresh session and its own workload from load — so they
// spread over the worker pool, and each writes its own slot, which keeps
// every table built from the grid byte-identical at any parallelism.
func (c *Context) runGrid(schemes []core.Scheme, apps []string,
	load func(string) (workload.Workload, error), base core.RunOptions,
	levels []gridLevel) ([]*core.RunResult, error) {

	if levels == nil {
		levels = []gridLevel{{}}
	}
	if c.workers() > 1 {
		if err := c.warmSchemes(schemes); err != nil {
			return nil, err
		}
	}
	nPer := len(schemes) * len(apps)
	out := make([]*core.RunResult, len(levels)*nPer)
	err := c.forEach(len(out), func(i int) error {
		lv := levels[i/nPer]
		sch := schemes[(i%nPer)/len(apps)]
		app := apps[i%len(apps)]
		w, err := load(app)
		if err != nil {
			return err
		}
		opt := base
		if lv.edit != nil {
			lv.edit(&opt)
		}
		var rec *obs.Recorder
		if lv.trace != "" && c.TraceDir != "" {
			rec = obs.NewRecorder(traceCapacity(opt))
			opt.Trace = rec
		}
		if out[i], err = core.Run(c.P.Cfg, sch, w, opt); err != nil {
			return fmt.Errorf("exp: %s on %s%s: %w", sch.Name, app, lv.label, err)
		}
		if rec != nil {
			return c.writeTrace(lv.trace+"-"+cleanName(sch.Name)+"-"+cleanName(app), rec)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
