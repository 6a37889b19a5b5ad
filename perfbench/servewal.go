package main

import (
	"math"
	"time"

	"yukta/internal/core"
	"yukta/internal/serve"
)

// serveWAL is the serving workload: a durable server driven by a closed loop
// of clients for --seconds (and at least one full plan round), then a crash
// with 64 sessions live and a timed recovery.
func serveWAL(r *run) error {
	dirs := newDataDirs(r)
	defer dirs.cleanup()
	pl := sessionPlan{seed: r.opt.seed, schemes: synthesisFree, apps: evalApps()}
	if r.opt.trace {
		return serveWALTraced(r, dirs, pl)
	}
	p, err := setupReps(r, func(p *core.Platform) error {
		h, err := startServer(r, p, dirs.next())
		if err != nil {
			return err
		}
		h.close()
		return nil
	})
	if err != nil {
		return err
	}
	// The server starts on a platform with no designed controllers, so the
	// first LQG sessions wait for the design, and design_s is the wait from
	// server ready to the results of the first plan round.
	leg, err := serveLeg(r, coldCopy(p), dirs, pl, time.Duration(r.opt.seconds*float64(time.Second)),
		pl.perRound())
	if err != nil {
		return err
	}
	reportServe(r, leg)
	t := leg.traffic
	r.set("design_s", t.round0, "s")
	r.set("board_intervals_per_s", float64(t.intervals)/t.wall, "1/s")
	exd, edp := cleanRound(r, pl, t.clean)
	r.set("exd_ratio", exd, "ratio")
	r.set("fleet_edp", edp, "J.s")
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	return nil
}

// cleanRound reads round 0's clean sessions: the mean over apps of the last
// scheme's E×D over the first's, and the sessions' E×D as one fleet (total
// energy times the slowest session's time).
func cleanRound(r *run, pl sessionPlan, clean map[int]serve.ResultInfo) (exd, edp float64) {
	r.check(len(clean) == pl.cells(), "round 0 completed %d of %d clean sessions", len(clean), pl.cells())
	ns := len(pl.schemes)
	var ratios []float64
	var e, t float64
	for a := range pl.apps {
		base, okB := clean[a*ns]
		head, okH := clean[a*ns+ns-1]
		if okB && okH {
			ratios = append(ratios, head.ExDJS/base.ExDJS)
		}
	}
	for _, res := range clean {
		e += res.EnergyJ
		t = math.Max(t, res.TimeS)
	}
	return mean(ratios), e * t
}

// serveWALTraced is serve-wal's traced run. The per-layer serve figures come
// from the server's own stage histograms and client-side timings, which are
// on in every run, so the tracing overhead is the difference between two
// identical fixed-work serve legs and reads as run-to-run noise.
func serveWALTraced(r *run, dirs *dataDirs, pl sessionPlan) error {
	p, err := tracedSetup(r)
	if err != nil {
		return err
	}
	boardUS := unitProbes(r, p, fleetBoards)
	if _, err := fleetLayers(r, p, 64, boardUS, false); err != nil {
		return err
	}
	plain, err := serveLeg(r, p, dirs, pl, 0, pl.perRound())
	if err != nil {
		return err
	}
	leg, err := serveLeg(r, p, dirs, pl, 0, pl.perRound())
	if err != nil {
		return err
	}
	reportServe(r, leg)
	r.set("trace.overhead_s", leg.traffic.wall-plain.traffic.wall, "s")
	return commonLayers(r, p, dirs, nil, nil)
}
