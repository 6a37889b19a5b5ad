package core

import (
	"testing"
	"time"

	"yukta/internal/fault"
	"yukta/internal/workload"
)

// runFor executes an app under a scheme with the standard options.
func runFor(t *testing.T, p *Platform, sch Scheme, app string) *RunResult {
	t.Helper()
	w := workload.MustLookup(app)
	res, err := Run(p.Cfg, sch, w, RunOptions{})
	if err != nil {
		t.Fatalf("%s on %s: %v", sch.Name, app, err)
	}
	if !res.Completed {
		t.Fatalf("%s on %s did not complete in %v", sch.Name, app, res.TimeS)
	}
	return res
}

// TestSchemeOrderingBlackscholes is the headline integration test: on the
// paper's showcase application the scheme ordering of Figures 9 and 12 must
// hold — both Yukta schemes and the monolithic LQG beat the coordinated
// heuristic baseline, and the decoupled heuristic is worse than the
// baseline.
func TestSchemeOrderingBlackscholes(t *testing.T) {
	p := testPlatform(t)
	base := runFor(t, p, p.CoordinatedHeuristic(), "blackscholes")
	full := runFor(t, p, p.YuktaFullSSV(DefaultHWParams(), DefaultOSParams()), "blackscholes")
	hwOnly := runFor(t, p, p.YuktaHWSSVOSHeuristic(DefaultHWParams()), "blackscholes")
	dec := runFor(t, p, p.DecoupledHeuristic(), "blackscholes")
	mono := runFor(t, p, p.MonolithicLQG(), "blackscholes")

	if full.ExD >= base.ExD {
		t.Errorf("Yukta full E×D %.0f should beat baseline %.0f", full.ExD, base.ExD)
	}
	if hwOnly.ExD >= base.ExD {
		t.Errorf("Yukta HW-only E×D %.0f should beat baseline %.0f", hwOnly.ExD, base.ExD)
	}
	if dec.ExD <= base.ExD {
		t.Errorf("decoupled E×D %.0f should be worse than baseline %.0f", dec.ExD, base.ExD)
	}
	if mono.ExD >= base.ExD {
		t.Errorf("monolithic LQG E×D %.0f should beat baseline %.0f", mono.ExD, base.ExD)
	}
	if full.ExD >= mono.ExD {
		t.Errorf("Yukta full E×D %.0f should beat monolithic LQG %.0f", full.ExD, mono.ExD)
	}
	// Yukta also finishes faster than the baseline (Fig. 9b).
	if full.TimeS >= base.TimeS {
		t.Errorf("Yukta full time %.1f should beat baseline %.1f", full.TimeS, base.TimeS)
	}
	t.Logf("ExD normalized to baseline: full=%.2f hwOnly=%.2f mono=%.2f decoupled=%.2f",
		full.ExD/base.ExD, hwOnly.ExD/base.ExD, mono.ExD/base.ExD, dec.ExD/base.ExD)
}

// TestYuktaPowerMorphology checks the Figure 10 narrative: the Yukta full
// scheme's big-cluster power has fewer large swings than the decoupled
// heuristic's.
func TestYuktaPowerMorphology(t *testing.T) {
	p := testPlatform(t)
	full := runFor(t, p, p.YuktaFullSSV(DefaultHWParams(), DefaultOSParams()), "blackscholes")
	dec := runFor(t, p, p.DecoupledHeuristic(), "blackscholes")
	if full.BigPower.Summarize().Std >= dec.BigPower.Summarize().Std {
		t.Errorf("Yukta power std %.2f should be below decoupled %.2f",
			full.BigPower.Summarize().Std, dec.BigPower.Summarize().Std)
	}
}

// TestFixedTargetTracking checks the §VI-E1 setup: with fixed feasible
// targets the SSV stack holds performance near the target.
func TestFixedTargetTracking(t *testing.T) {
	p := testPlatform(t)
	hw, err := p.NewFixedHWSession(DefaultHWParams(), []float64{5.5, 2.5, 0.2, 70})
	if err != nil {
		t.Fatal(err)
	}
	os, err := p.NewFixedOSSession(DefaultOSParams(), []float64{1, 4.5, 1})
	if err != nil {
		t.Fatal(err)
	}
	sch := Scheme{Name: "fixed", New: func() (Session, error) {
		return &FixedTargetSession{HW: hw, OS: os}, nil
	}}
	w := workload.MustLookup("blackscholes")
	res, err := Run(p.Cfg, sch, w, RunOptions{MaxTime: 400 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Ignore initialization and termination; mid-run performance should sit
	// near the 5.5 BIPS target (within the ±20% bound of its range would be
	// ±~2.6; demand much better than that on average).
	mid := res.Perf.MeanAbove(40)
	if mid < 3.8 || mid > 7.2 {
		t.Errorf("fixed-target performance settled at %.2f, want near 5.5", mid)
	}
}

// TestYuktaSurvivesSensorNoise is the failure-injection check: with noisy
// power/temperature sensors (±0.15 W on a 3.3 W signal) the SSV stack must
// still complete, stay clear of sustained firmware fights, and keep its E×D
// within a modest factor of the clean run — the robustness the uncertainty
// guardband pays for.
func TestYuktaSurvivesSensorNoise(t *testing.T) {
	p := testPlatform(t)
	clean := runFor(t, p, p.YuktaFullSSV(DefaultHWParams(), DefaultOSParams()), "blackscholes")

	noisy := fault.Plan{Seed: 7, Noise: fault.NoiseFault{PowerStdW: 0.15, TempStdC: 0.015}}
	w := workload.MustLookup("blackscholes")
	res, err := Run(p.Cfg, p.YuktaFullSSV(DefaultHWParams(), DefaultOSParams()), w, RunOptions{Faults: noisy})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("noisy run did not complete")
	}
	if res.ExD > clean.ExD*1.35 {
		t.Errorf("sensor noise degraded E×D %.0f -> %.0f (more than 35%%)", clean.ExD, res.ExD)
	}
	if res.EmergencyEvents > clean.EmergencyEvents+25 {
		t.Errorf("noise caused %d emergencies (clean: %d)", res.EmergencyEvents, clean.EmergencyEvents)
	}
}
