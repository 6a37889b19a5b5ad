package exp

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"

	"yukta/internal/core"
	"yukta/internal/fault"
	"yukta/internal/obs"
	"yukta/internal/pool"
	"yukta/internal/workload"
)

// readTraceDir returns the sorted names and contents of every file in dir.
func readTraceDir(t *testing.T, dir string) (names []string, contents map[string][]byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	contents = map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, e.Name())
		contents[e.Name()] = data
	}
	sort.Strings(names)
	return names, contents
}

// TestTraceDeterminismAcrossParallelism runs the supervised fault sweep with
// tracing at parallelism 1 and 8 and requires every recorded file to come out
// byte-identical — the flight recorder must not observe worker scheduling.
func TestTraceDeterminismAcrossParallelism(t *testing.T) {
	base := testContext(t)
	run := func(parallelism int) (names []string, contents map[string][]byte) {
		dir := t.TempDir()
		c := &Context{P: base.P, Parallelism: parallelism, Seed: 1, Supervise: true, TraceDir: dir}
		if _, err := c.RobustnessSweep([]string{"gamess"}, []float64{1.0}); err != nil {
			t.Fatal(err)
		}
		return readTraceDir(t, dir)
	}
	seqNames, seqFiles := run(1)
	parNames, parFiles := run(8)
	if len(seqNames) == 0 {
		t.Fatal("sweep wrote no trace files")
	}
	if len(seqNames) != len(parNames) {
		t.Fatalf("file sets differ: %v vs %v", seqNames, parNames)
	}
	for _, name := range seqNames {
		if !bytes.Equal(seqFiles[name], parFiles[name]) {
			t.Errorf("%s differs between parallelism 1 and 8", name)
		}
	}
}

// TestTraceMatchesAggregates attaches a recorder to one supervised faulted
// run and requires the per-interval records to reproduce the run's aggregate
// supervisor and fault statistics exactly.
func TestTraceMatchesAggregates(t *testing.T) {
	c := testContext(t)
	sch := c.P.SupervisedYuktaSSV(core.DefaultHWParams(), core.DefaultOSParams())
	w, err := workload.Lookup("gamess")
	if err != nil {
		t.Fatal(err)
	}
	opt := runOpts()
	opt.SkipSeries = true
	opt.Faults = fault.Preset(1, 2.0)
	rec := obs.NewRecorder(traceCapacity(opt))
	opt.Trace = rec
	res, err := core.Run(c.P.Cfg, sch, w, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d records; capacity must cover the horizon", rec.Dropped())
	}
	steps := int(res.TimeS/res.IntervalS + 0.5)
	if rec.Len() != steps {
		t.Fatalf("recorded %d intervals, run executed %d", rec.Len(), steps)
	}

	var trips, fallback int
	var f fault.Stats
	for i := 0; i < rec.Len(); i++ {
		r := rec.At(i)
		if r.SupTripped {
			trips++
		}
		if r.SupState == "fallback" {
			fallback++
		}
		f.DroppedReadings += r.FaultDropped
		f.StaleReadings += r.FaultStale
		f.HeldCommands += r.FaultHeld
		f.SkewedCommands += r.FaultSkewed
		f.ForcedThrottles += r.FaultForced
	}
	sup := res.Supervisor
	if sup == nil {
		t.Fatal("supervised run returned no supervisor stats")
	}
	if sup.Trips == 0 {
		t.Fatal("combined campaign at intensity 2.0 tripped zero times; test needs a tripping run")
	}
	if trips != sup.Trips {
		t.Errorf("record trip sum %d != supervisor.Stats.Trips %d", trips, sup.Trips)
	}
	if fallback != sup.FallbackSteps {
		t.Errorf("fallback-state records %d != supervisor.Stats.FallbackSteps %d", fallback, sup.FallbackSteps)
	}
	if f != res.Faults {
		t.Errorf("fault delta sums %+v != fault.Stats %+v", f, res.Faults)
	}

	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := obs.ValidateJSONL(&buf)
	if err != nil {
		t.Fatalf("exported trace fails schema validation: %v", err)
	}
	if n != rec.Len() {
		t.Fatalf("validator counted %d records, recorder holds %d", n, rec.Len())
	}
}

// TestMetricsUnderPool hammers pool.ForEachMetered with a registry and checks the
// pool accounting is exact; run under -race this also exercises the registry
// for data races.
func TestMetricsUnderPool(t *testing.T) {
	reg := obs.NewRegistry()
	const n = 200
	var ran atomic.Int64
	err := pool.ForEachMetered(8, n, reg, func(i int) error {
		ran.Add(1)
		reg.Histogram("work", obs.LatencyBucketsUS()).Observe(float64(i))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != n {
		t.Fatalf("ran %d jobs, want %d", ran.Load(), n)
	}
	if got := reg.Counter("pool_jobs_total").Value(); got != n {
		t.Fatalf("pool_jobs_total = %d, want %d", got, n)
	}
	g := reg.Gauge("pool_workers_active")
	if g.Value() != 0 {
		t.Fatalf("pool_workers_active settled at %d, want 0", g.Value())
	}
	if g.Max() < 1 || g.Max() > 8 {
		t.Fatalf("pool_workers_active max = %d, want within [1,8]", g.Max())
	}
	if got := reg.Histogram("work", nil).Count(); got != n {
		t.Fatalf("histogram count = %d, want %d", got, n)
	}
}

// TestSkipSeriesScalarEquality checks the SkipSeries opt-out changes nothing
// but the presence of the trace buffers.
func TestSkipSeriesScalarEquality(t *testing.T) {
	c := testContext(t)
	sch := c.P.CoordinatedHeuristic()
	run := func(skip bool) *core.RunResult {
		w, err := workload.Lookup("gamess")
		if err != nil {
			t.Fatal(err)
		}
		opt := runOpts()
		opt.SkipSeries = skip
		res, err := core.Run(c.P.Cfg, sch, w, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full, skipped := run(false), run(true)
	if skipped.BigPower != nil || skipped.Perf != nil {
		t.Fatal("SkipSeries run still carries series buffers")
	}
	if full.BigPower == nil {
		t.Fatal("normal run lost its series buffers")
	}
	if full.ExD != skipped.ExD || full.TimeS != skipped.TimeS || full.EnergyJ != skipped.EnergyJ {
		t.Fatalf("scalar results differ with SkipSeries: ExD %g vs %g, T %g vs %g, E %g vs %g",
			full.ExD, skipped.ExD, full.TimeS, skipped.TimeS, full.EnergyJ, skipped.EnergyJ)
	}
}
