package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"yukta/internal/core"
	"yukta/internal/fault"
	"yukta/internal/fleet"
	"yukta/internal/obs"
	"yukta/internal/workload"
)

// fleetBoards is fleet-tree's fleet size: large enough that board physics
// dominates, small enough that the traced run (two fleet passes plus the
// design suite) ends well inside the per-run time limit.
const fleetBoards = 2048

// fleetSchemes are the four per-board schemes that need no SSV synthesis,
// in synthesisFree order.
func fleetSchemes(p *core.Platform) []core.Scheme {
	return []core.Scheme{p.CoordinatedHeuristic(), p.DecoupledHeuristic(), p.MonolithicLQG(), supervisedLQG(p)}
}

// fleetMembers assigns every (scheme, app) cell to an equal share of the n
// boards and shuffles the boards' places in the tree by the seed. wrap, when
// non-nil, decorates every scheme.
func fleetMembers(p *core.Platform, n int, seed int64, wrap func(core.Scheme) core.Scheme) []core.FleetMember {
	schemes := fleetSchemes(p)
	if wrap != nil {
		for i, s := range schemes {
			schemes[i] = wrap(s)
		}
	}
	apps := evalApps()
	order := rand.New(rand.NewSource(seeded(seed, 10))).Perm(n)
	members := make([]core.FleetMember, n)
	for i, k := range order {
		members[i] = core.FleetMember{Scheme: schemes[k%len(schemes)],
			Workload: workload.MustLookup(apps[(k/len(schemes))%len(apps)])}
	}
	return members
}

// fleetOptions is one depth-3 tree fleet run: slack-feedback at every node,
// 2.2 W per board, the fault preset at intensity 0.5, fleet trace on.
func fleetOptions(r *run, n int, newPolicy func() fleet.Policy) (core.FleetOptions, error) {
	topo, err := fleet.Uniform(n, 3)
	if err != nil {
		return core.FleetOptions{}, err
	}
	return core.FleetOptions{
		Budget:      fleet.Budget{TotalW: 2.2 * float64(n), MinW: 1, MaxW: 4.5},
		Topology:    topo,
		TreePolicy:  newPolicy,
		MaxTime:     1500 * time.Second,
		Interval:    500 * time.Millisecond,
		Faults:      fault.Preset(seeded(r.opt.seed, 11), 0.5),
		Parallelism: r.nproc,
		Trace:       obs.NewFleetRecorder(3001),
	}, nil
}

func slackFeedback() fleet.Policy { return fleet.NewSlackFeedback() }

// fleetPass is one measured FleetRun.
type fleetPass struct {
	res  *core.FleetResult
	wall float64
	cpu  float64
}

// runFleet runs one fleet and checks that every board completed and that the
// fleet trace validates.
func runFleet(r *run, p *core.Platform, members []core.FleetMember, opt core.FleetOptions) (*fleetPass, error) {
	cpu0 := cpuSeconds()
	t0 := time.Now()
	res, err := core.FleetRun(p.Cfg, members, opt)
	pass := &fleetPass{wall: seconds(t0), cpu: cpuSeconds() - cpu0, res: res}
	if !r.op(err) {
		return nil, fmt.Errorf("fleet run: %w", err)
	}
	for _, b := range res.Boards {
		r.check(b.Completed, "board %d (%s on %s) did not complete", b.Board, b.Scheme, b.App)
	}
	var buf bytes.Buffer
	if r.op(opt.Trace.WriteJSONL(&buf)) {
		_, verr := obs.ValidateFleetJSONL(&buf)
		r.check(verr == nil, "fleet trace: %v", verr)
	}
	return pass, nil
}

// boardIntervals counts the simulated control intervals of a fleet run.
func boardIntervals(res *core.FleetResult) float64 {
	var n float64
	for _, b := range res.Boards {
		n += math.Round(b.TimeS / 0.5)
	}
	return n
}

// sameSimulation reports whether two fleet runs simulated the same thing:
// every board's time, energy and E×D, and the fleet EDP, bit for bit.
func sameSimulation(a, b *core.FleetResult) bool {
	if len(a.Boards) != len(b.Boards) || a.EDP != b.EDP {
		return false
	}
	for i := range a.Boards {
		x, y := a.Boards[i], b.Boards[i]
		if x.TimeS != y.TimeS || x.EnergyJ != y.EnergyJ || x.ExD != y.ExD || x.Completed != y.Completed {
			return false
		}
	}
	return true
}

// fleetExDRatio is the mean over apps of the supervised-LQG boards' mean E×D
// over the coordinated-heuristic boards' mean E×D on the same app.
func fleetExDRatio(p *core.Platform, res *core.FleetResult) float64 {
	schemes := fleetSchemes(p)
	base, head := schemes[0].Name, schemes[len(schemes)-1].Name
	type acc struct{ base, head, nb, nh float64 }
	per := map[string]*acc{}
	for _, b := range res.Boards {
		a := per[b.App]
		if a == nil {
			a = &acc{}
			per[b.App] = a
		}
		switch b.Scheme {
		case base:
			a.base += b.ExD
			a.nb++
		case head:
			a.head += b.ExD
			a.nh++
		}
	}
	var ratios []float64
	for _, app := range evalApps() {
		if a := per[app]; a != nil && a.nb > 0 && a.nh > 0 {
			ratios = append(ratios, (a.head/a.nh)/(a.base/a.nb))
		}
	}
	return mean(ratios)
}

// fleetTree is the physics-heavy workload: one depth-3 tree fleet of
// fleetBoards boards, repeated while --seconds last, then a short serve leg.
func fleetTree(r *run) error {
	dirs := newDataDirs(r)
	defer dirs.cleanup()
	if r.opt.trace {
		return fleetTreeTraced(r, dirs)
	}
	p, err := setupReps(r, func(p *core.Platform) error {
		if _, err := p.MonolithicLQGController(); err != nil {
			return err
		}
		fleetMembers(p, fleetBoards, r.opt.seed, nil) // timed as part of set-up, then rebuilt per pass
		return nil
	})
	if err != nil {
		return err
	}

	// The first pass starts on a platform with no designed controllers, so
	// design_s is the wait from platform ready to the first fleet result.
	p = coldCopy(p)
	runtime.GC()
	t0 := time.Now()
	var rates []float64
	var first *core.FleetResult
	deadline := time.Now().Add(time.Duration(r.opt.seconds * float64(time.Second)))
	for len(rates) == 0 || time.Now().Before(deadline) {
		opt, err := fleetOptions(r, fleetBoards, slackFeedback)
		if err != nil {
			return err
		}
		pass, err := runFleet(r, p, fleetMembers(p, fleetBoards, r.opt.seed, nil), opt)
		if err != nil {
			return err
		}
		if first == nil {
			first = pass.res
			r.set("design_s", seconds(t0), "s")
		} else {
			r.check(sameSimulation(first, pass.res), "fleet rerun simulated differently")
		}
		rates = append(rates, boardIntervals(pass.res)/pass.wall)
		note("fleet pass: %d boards, %d intervals, %.0f board-intervals in %.2f s, %d node reallocs",
			len(pass.res.Boards), pass.res.Steps, boardIntervals(pass.res), pass.wall, pass.res.NodeReallocations)
	}
	r.set("board_intervals_per_s", median(rates), "1/s")
	r.set("fleet_edp", first.EDP, "J.s")
	r.set("exd_ratio", fleetExDRatio(p, first), "ratio")

	leg, err := serveLeg(r, p, dirs, sessionPlan{seed: r.opt.seed, schemes: synthesisFree, apps: evalApps()},
		legDuration(r), 0)
	if err != nil {
		return err
	}
	reportServe(r, leg)
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	return nil
}

// fleetLayers runs a fleet of n boards with timed schemes and policies and
// reports the controller-step and reallocation layers, pool utilization,
// and the share of fleet CPU time no timed layer covers. With untraced set
// it first runs the same fleet without timing, checks that the timed run
// simulated exactly the same, and returns the tracing overhead in seconds.
func fleetLayers(r *run, p *core.Platform, n int, boardUS float64, untraced bool) (float64, error) {
	var plain *fleetPass
	if untraced {
		opt, err := fleetOptions(r, n, slackFeedback)
		if err != nil {
			return 0, err
		}
		if plain, err = runFleet(r, p, fleetMembers(p, n, r.opt.seed, nil), opt); err != nil {
			return 0, err
		}
	}
	st := newStepTimer()
	realloc := &reallocTimer{}
	opt, err := fleetOptions(r, n, func() fleet.Policy { return &timedPolicy{inner: slackFeedback(), acc: realloc} })
	if err != nil {
		return 0, err
	}
	timed, err := runFleet(r, p, fleetMembers(p, n, r.opt.seed, st.wrap), opt)
	if err != nil {
		return 0, err
	}
	schemes := fleetSchemes(p)
	heurD, heurUS := st.stats(schemes[0].Name, schemes[1].Name)
	lqgD, lqgUS := st.stats(schemes[2].Name)
	supD, supUS := st.stats(schemes[3].Name)
	r.set("heuristic.step_us", heurUS, "us")
	r.set("heuristic.step_share", heurUS/intervalUS, "frac")
	r.set("lqgctl.step_us", lqgUS, "us")
	r.set("lqgctl.step_share", lqgUS/intervalUS, "frac")
	r.set("supervisor.step_us", supUS-lqgUS, "us")
	r.set("supervisor.step_share", (supUS-lqgUS)/intervalUS, "frac")
	r.set("fleet.realloc_us", float64(realloc.d.Nanoseconds())/1e3/float64(realloc.n), "us")
	r.set("fleet.node_reallocs", float64(timed.res.NodeReallocations), "count")
	r.check(int64(timed.res.NodeReallocations) == realloc.n,
		"fleet reported %d node reallocations, the policies saw %d", timed.res.NodeReallocations, realloc.n)
	// Board physics runs inside the engine where no wrapper reaches; it is
	// attributed from the directly driven board interval cost.
	attributed := (heurD + lqgD + supD + realloc.d).Seconds() + boardUS*boardIntervals(timed.res)/1e6
	r.set("core.fleet_unattributed_frac", 1-attributed/timed.cpu, "frac")
	util := timed
	if plain != nil {
		util = plain
	}
	r.set("core.pool_util", util.cpu/(util.wall*float64(r.nproc)), "frac")
	note("fleet layers: %d boards, timed pass %.2f s", n, timed.wall)
	if plain == nil {
		return 0, nil
	}
	r.check(sameSimulation(plain.res, timed.res), "timed fleet simulated differently from the untimed fleet")
	return timed.wall - plain.wall, nil
}

// fleetTreeTraced is fleet-tree's traced run.
func fleetTreeTraced(r *run, dirs *dataDirs) error {
	p, err := tracedSetup(r)
	if err != nil {
		return err
	}
	boardUS := unitProbes(r, p, fleetBoards)
	overhead, err := fleetLayers(r, p, fleetBoards, boardUS, true)
	if err != nil {
		return err
	}
	r.set("trace.overhead_s", overhead, "s")
	return commonLayers(r, p, dirs, &sessionPlan{seed: r.opt.seed, schemes: synthesisFree, apps: evalApps()}, nil)
}
