package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"yukta/internal/fault"
	"yukta/internal/fleet"
	"yukta/internal/obs"
	"yukta/internal/workload"
)

// fleetTestMembers builds a small heterogeneous fleet over the quick mix.
func fleetTestMembers(t *testing.T, p *Platform, n int, sch Scheme) []FleetMember {
	t.Helper()
	apps := []string{"gamess", "mcf", "blackscholes", "streamcluster"}
	members := make([]FleetMember, n)
	for i := range members {
		w, err := workload.Lookup(apps[i%len(apps)])
		if err != nil {
			t.Fatal(err)
		}
		members[i] = FleetMember{Scheme: sch, Workload: w}
	}
	return members
}

// fleetTestOptions is a short bounded run: 4 boards for 60 simulated seconds
// is enough for several reallocation periods and fault activity.
func fleetTestOptions(newPolicy func() fleet.Policy) FleetOptions {
	return FleetOptions{
		Budget:     fleet.Budget{TotalW: 8.8, MinW: 1.0, MaxW: 4.5},
		TreePolicy: newPolicy,
		MaxTime:    60 * time.Second,
	}
}

// equalShare is the TreePolicy factory of the stateless equal-share policy.
func equalShare() fleet.Policy { return fleet.EqualShare{} }

// TestFleetConservation is the cross-scheme conservation table: for every
// budget policy × fault class (plus clean) × scheme combination, the sum of
// allocated caps must stay within the fleet budget at every recorded
// interval. Run under -race in CI, this is also the fleet runner's data-race
// canary.
func TestFleetConservation(t *testing.T) {
	p := testPlatform(t)
	schemes := []Scheme{
		p.CoordinatedHeuristic(),
		p.YuktaFullSSV(DefaultHWParams(), DefaultOSParams()),
	}
	classes := append([]string{"clean"}, fault.ClassNames()...)
	for _, sch := range schemes {
		for _, newPolicy := range []func() fleet.Policy{equalShare, feedbackPolicy} {
			polName := newPolicy().Name()
			for _, class := range classes {
				opt := fleetTestOptions(newPolicy)
				if class != "clean" {
					opt.Faults = fault.PresetClass(3, 1.0, class)
				}
				rec := obs.NewFleetRecorder(0)
				opt.Trace = rec
				res, err := FleetRun(p.Cfg, fleetTestMembers(t, p, 4, sch), opt)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", sch.Name, polName, class, err)
				}
				if rec.Len() != res.Steps {
					t.Fatalf("%s/%s/%s: %d records for %d steps", sch.Name, polName, class, rec.Len(), res.Steps)
				}
				for i := 0; i < rec.Len(); i++ {
					r := rec.At(i)
					if r.AllocW > r.BudgetW+1e-9 {
						t.Fatalf("%s/%s/%s: step %d allocates %.6f W over the %.1f W budget",
							sch.Name, polName, class, r.Step, r.AllocW, r.BudgetW)
					}
					if r.Live+r.Done != 4 {
						t.Fatalf("%s/%s/%s: step %d live %d + done %d != 4",
							sch.Name, polName, class, r.Step, r.Live, r.Done)
					}
					if r.CapMaxW > 4.5+1e-9 || (r.Live > 0 && r.CapMinW < 1.0-1e-9) {
						t.Fatalf("%s/%s/%s: step %d caps [%.3f, %.3f] outside bounds",
							sch.Name, polName, class, r.Step, r.CapMinW, r.CapMaxW)
					}
				}
				if res.Reallocations == 0 {
					t.Fatalf("%s/%s/%s: no reallocations in %d steps", sch.Name, polName, class, res.Steps)
				}
			}
		}
	}
}

// fleetTraces runs one faulted fleet and returns the fleet JSONL plus every
// per-board JSONL, concatenated deterministically.
func fleetTraces(t *testing.T, p *Platform, parallelism int) []byte {
	t.Helper()
	sch := p.YuktaFullSSV(DefaultHWParams(), DefaultOSParams())
	members := fleetTestMembers(t, p, 8, sch)
	opt := fleetTestOptions(feedbackPolicy)
	opt.Budget.TotalW = 17.6
	opt.Faults = fault.Preset(5, 1.0)
	opt.Parallelism = parallelism
	opt.Trace = obs.NewFleetRecorder(0)
	boardRecs := make([]*obs.Recorder, len(members))
	for i := range boardRecs {
		boardRecs[i] = obs.NewRecorder(0)
	}
	opt.BoardTraces = boardRecs
	if _, err := FleetRun(p.Cfg, members, opt); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := opt.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	for i, rec := range boardRecs {
		fmt.Fprintf(&buf, "--- board %d ---\n", i)
		if err := rec.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestFleetTraceParallelDeterminism asserts the fleet determinism contract:
// the coordination-layer trace and every per-board trace are byte-identical
// whether boards step sequentially or on eight workers.
func TestFleetTraceParallelDeterminism(t *testing.T) {
	p := testPlatform(t)
	seq := fleetTraces(t, p, 1)
	par := fleetTraces(t, p, 8)
	if len(seq) == 0 {
		t.Fatal("empty traces")
	}
	if !bytes.Equal(seq, par) {
		i := 0
		for i < len(seq) && i < len(par) && seq[i] == par[i] {
			i++
		}
		lo, hi := i-40, i+40
		if lo < 0 {
			lo = 0
		}
		if hi > len(seq) {
			hi = len(seq)
		}
		t.Fatalf("traces diverge at byte %d:\nseq: %q\npar: %q", i, seq[lo:hi], par[min(hi, len(par)):])
	}
}

// TestFleetBoardZeroPairsWithSolo asserts the common-random-numbers pairing
// through the real drivers: for every scheme × fault class, board 0 of a
// one-board FleetRun whose budget never binds executes the solo Run of the
// same (scheme, app) interval for interval — same fault stream, same
// physics, same controller moves. Only the cap the fleet actuates and the
// wall-clock step latency may differ between the two traces.
func TestFleetBoardZeroPairsWithSolo(t *testing.T) {
	if got, want := fault.RunKey("s", "a", 0), fault.RunKey("s", "a"); got != want {
		t.Fatalf("RunKey with board 0 = %q, want %q", got, want)
	}
	if fault.RunKey("s", "a", 1) == fault.RunKey("s", "a") {
		t.Fatal("board 1 must not alias the solo key")
	}
	p := testPlatform(t)
	const maxTime = 30 * time.Second
	// pairedTrace renders a trace with the fields the fleet may legitimately
	// change zeroed.
	pairedTrace := func(rec *obs.Recorder) []byte {
		var buf []byte
		for i := 0; i < rec.Len(); i++ {
			r := rec.At(i)
			r.PowerCapW, r.LatencyNS = 0, 0
			buf = obs.AppendRecordJSON(buf, &r)
		}
		return buf
	}
	for _, sch := range equivSchemes(p) {
		for _, class := range equivClasses() {
			var faults fault.Plan
			if class != "clean" {
				faults = fault.PresetClass(7, 1.0, class)
			}
			name := sch.Name + "/" + class
			soloRec := obs.NewRecorder(0)
			solo, err := Run(p.Cfg, sch, fleetTestMembers(t, p, 1, sch)[0].Workload, RunOptions{
				MaxTime: maxTime, SkipSeries: true, Faults: faults, Trace: soloRec,
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			boardRec := obs.NewRecorder(0)
			fl, err := FleetRun(p.Cfg, fleetTestMembers(t, p, 1, sch), FleetOptions{
				Budget:      fleet.Budget{TotalW: 1000, MinW: 1, MaxW: 1000},
				TreePolicy:  feedbackPolicy,
				MaxTime:     maxTime,
				Faults:      faults,
				BoardTraces: []*obs.Recorder{boardRec},
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if soloRec.Len() == 0 || !bytes.Equal(pairedTrace(soloRec), pairedTrace(boardRec)) {
				t.Fatalf("%s: board 0's trace (%d records) differs from the solo run's (%d records)",
					name, boardRec.Len(), soloRec.Len())
			}
			b := fl.Boards[0]
			if b.TimeS != solo.TimeS || b.EnergyJ != solo.EnergyJ || b.Faults != solo.Faults {
				t.Fatalf("%s: board 0 time/energy/faults %v/%v/%+v, solo %v/%v/%+v",
					name, b.TimeS, b.EnergyJ, b.Faults, solo.TimeS, solo.EnergyJ, solo.Faults)
			}
			if b.BudgetEvents != 0 {
				t.Fatalf("%s: a 1000 W budget engaged the governor %d times", name, b.BudgetEvents)
			}
		}
	}
}

// TestFleetCountsFaults checks that a faulted fleet run folds every board's
// injected faults into the registry's fault counters.
func TestFleetCountsFaults(t *testing.T) {
	p := testPlatform(t)
	opt := fleetTestOptions(equalShare)
	opt.Faults = fault.Preset(5, 1.0)
	opt.Metrics = obs.NewRegistry()
	res, err := FleetRun(p.Cfg, fleetTestMembers(t, p, 4, p.CoordinatedHeuristic()), opt)
	if err != nil {
		t.Fatal(err)
	}
	var want, dropped int64
	for _, b := range res.Boards {
		f := b.Faults
		want += int64(f.DroppedReadings + f.StaleReadings + f.HeldCommands + f.SkewedCommands + f.ForcedThrottles)
		dropped += int64(f.DroppedReadings)
	}
	if want == 0 {
		t.Fatal("the fault plan injected nothing")
	}
	if got := opt.Metrics.Counter("faults_injected_total").Value(); got != want {
		t.Fatalf("faults_injected_total = %d, want the boards' sum %d", got, want)
	}
	if got := opt.Metrics.Counter("faults_dropped_total").Value(); got != dropped {
		t.Fatalf("faults_dropped_total = %d, want the boards' sum %d", got, dropped)
	}
}

// TestFleetRunValidation exercises the entry-point guards.
func TestFleetRunValidation(t *testing.T) {
	p := testPlatform(t)
	sch := p.CoordinatedHeuristic()
	members := fleetTestMembers(t, p, 4, sch)
	if _, err := FleetRun(p.Cfg, nil, fleetTestOptions(equalShare)); err == nil {
		t.Fatal("empty fleet accepted")
	}
	opt := fleetTestOptions(nil)
	if _, err := FleetRun(p.Cfg, members, opt); err == nil {
		t.Fatal("nil policy factory accepted")
	}
	opt = fleetTestOptions(equalShare)
	opt.Budget.TotalW = 2 // cannot cover 4 × 1 W floors
	if _, err := FleetRun(p.Cfg, members, opt); err == nil {
		t.Fatal("infeasible budget accepted")
	}
	opt = fleetTestOptions(equalShare)
	opt.BoardTraces = make([]*obs.Recorder, 2)
	if _, err := FleetRun(p.Cfg, members, opt); err == nil {
		t.Fatal("mis-sized BoardTraces accepted")
	}
}
