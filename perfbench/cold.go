package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"

	"yukta/internal/core"
	"yukta/internal/pool"
	"yukta/internal/workload"
)

// fig9API names Figure 9's four schemes in the server's catalog, in the
// order of fig9Schemes.
var fig9API = []string{"coordinated", "decoupled", "yukta-hw", "yukta-full"}

// fig9Schemes returns Figure 9's four schemes: the coordinated-heuristic
// baseline first, full Yukta last.
func fig9Schemes(p *core.Platform) []core.Scheme {
	hp, op := core.DefaultHWParams(), core.DefaultOSParams()
	return []core.Scheme{p.CoordinatedHeuristic(), p.DecoupledHeuristic(),
		p.YuktaHWSSVOSHeuristic(hp), p.YuktaFullSSV(hp, op)}
}

func matrixOpts() core.RunOptions {
	return core.RunOptions{MaxTime: 1500 * time.Second, SkipSeries: true}
}

// matrix runs every scheme on every app on the given number of workers and
// checks that each run completed. Result i is scheme i/len(apps) on app
// i%len(apps).
func matrix(r *run, p *core.Platform, schemes []core.Scheme, apps []string, workers int) ([]*core.RunResult, float64) {
	out := make([]*core.RunResult, len(schemes)*len(apps))
	t0 := time.Now()
	err := pool.ForEach(workers, len(out), func(i int) error {
		res, err := core.Run(p.Cfg, schemes[i/len(apps)], workload.MustLookup(apps[i%len(apps)]), matrixOpts())
		out[i] = res
		return err
	})
	wall := seconds(t0)
	r.op(err)
	for i, res := range out {
		r.check(res != nil && res.Completed, "%s on %s did not complete", schemes[i/len(apps)].Name, apps[i%len(apps)])
	}
	return out, wall
}

// sameRuns reports whether two run lists simulated the same, bit for bit.
func sameRuns(a, b []*core.RunResult) bool {
	for i := range a {
		if a[i] == nil || b[i] == nil || a[i].TimeS != b[i].TimeS || a[i].EnergyJ != b[i].EnergyJ || a[i].ExD != b[i].ExD {
			return false
		}
	}
	return len(a) == len(b)
}

// runIntervals counts the simulated control intervals of the runs.
func runIntervals(runs []*core.RunResult) float64 {
	var n float64
	for _, res := range runs {
		if res != nil {
			n += math.Round(res.TimeS / res.IntervalS)
		}
	}
	return n
}

// coldDesign is the synthesis-heavy workload: on a fresh platform, full
// Yukta on the first app of the seeded order (which designs and validates
// both SSV controllers), then the whole Figure 9 matrix, repeated for a
// steady throughput figure, then a shorter serve leg of the Figure 9
// schemes.
func coldDesign(r *run) error {
	dirs := newDataDirs(r)
	defer dirs.cleanup()
	apps := evalApps()
	rand.New(rand.NewSource(seeded(r.opt.seed, 30))).Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	pl := sessionPlan{seed: r.opt.seed, schemes: fig9API, apps: apps}
	if r.opt.trace {
		return coldDesignTraced(r, dirs, apps, pl)
	}
	p, err := setupReps(r, nil)
	if err != nil {
		return err
	}
	schemes := fig9Schemes(p)
	t0 := time.Now()
	first, err := core.Run(p.Cfg, schemes[3], workload.MustLookup(apps[0]), matrixOpts())
	design := seconds(t0)
	if !r.op(err) {
		return err
	}
	r.set("design_s", design, "s")
	note("design_s: platform ready to first %s result on %s", schemes[3].Name, apps[0])
	hw, err := p.HWControllerValidated(core.DefaultHWParams())
	if r.op(err) {
		checkSSV(r, "HW", hw)
	}
	osc, err := p.OSControllerValidated(core.DefaultOSParams())
	if r.op(err) {
		checkSSV(r, "OS", osc)
	}

	var ref []*core.RunResult
	var rates []float64
	start := time.Now()
	for len(rates) < 3 || time.Since(start) < 3*time.Second {
		runtime.GC()
		runs, wall := matrix(r, p, schemes, apps, 1)
		if ref == nil {
			ref = runs
			r.check(runs[3*len(apps)].ExD == first.ExD, "yukta-full on %s rerun simulated differently", apps[0])
		} else {
			r.check(sameRuns(ref, runs), "Figure 9 matrix rerun simulated differently")
		}
		rates = append(rates, runIntervals(runs)/wall)
	}
	note("matrix: %d runs x %d repeats, %.0f intervals each", len(ref), len(rates), runIntervals(ref))
	r.set("board_intervals_per_s", median(rates), "1/s")
	exd := matrixExDRatio(ref, len(apps))
	r.check(math.Abs(exd-0.70) <= 0.01, "exd_ratio %.4f is not within 0.01 of EXPERIMENTS.md's 0.70", exd)
	r.set("exd_ratio", exd, "ratio")
	r.set("fleet_edp", populationEDP(ref), "J.s")

	leg, err := serveLeg(r, p, dirs, pl, legDuration(r), 0)
	if err != nil {
		return err
	}
	reportServe(r, leg)
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	return nil
}

// matrixExDRatio is the mean over apps of full Yukta's E×D over the
// coordinated heuristic's, as EXPERIMENTS.md's Figure 9 average.
func matrixExDRatio(runs []*core.RunResult, nApps int) float64 {
	var ratios []float64
	for a := 0; a < nApps; a++ {
		ratios = append(ratios, runs[3*nApps+a].ExD/runs[a].ExD)
	}
	return mean(ratios)
}

// populationEDP treats the runs as one fleet: total energy times the
// slowest run's time.
func populationEDP(runs []*core.RunResult) float64 {
	var e, t float64
	for _, res := range runs {
		e += res.EnergyJ
		t = math.Max(t, res.TimeS)
	}
	return e * t
}

// coldDesignTraced is cold-design's traced run. The design itself is timed
// by bracketing the validated-design calls, which costs nothing; the
// tracing overhead is measured on the Figure 9 matrix, run untimed and then
// with every session timed.
func coldDesignTraced(r *run, dirs *dataDirs, apps []string, pl sessionPlan) error {
	p, err := tracedSetup(r)
	if err != nil {
		return err
	}
	hw, err := designSuite(r, p)
	if err != nil {
		return err
	}
	schemes := fig9Schemes(p)
	plain, plainWall := matrix(r, p, schemes, apps, 1)
	st := newStepTimer()
	for i, s := range schemes {
		schemes[i] = st.wrap(s)
	}
	timed, timedWall := matrix(r, p, schemes, apps, 1)
	r.check(sameRuns(plain, timed), "timed Figure 9 matrix simulated differently from the untimed one")
	r.set("trace.overhead_s", timedWall-plainWall, "s")
	boardUS := unitProbes(r, p, fleetBoards)
	if _, err := fleetLayers(r, p, 64, boardUS, false); err != nil {
		return err
	}
	return commonLayers(r, p, dirs, &pl, hw)
}
