// Command perfbench is the repository benchmark. It runs one workload for
// one seed and prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 they are the per-layer metrics, timed from outside the
// program around calls into each package's exported functions. README.md
// says why each workload exists and which end-to-end metric each per-layer
// metric should move.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cold-design --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
)

// options are the command-line arguments of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	data     string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the accounting of one benchmark run: operations attempted and
// failed, failed checks, and the metrics reported so far.
type run struct {
	opt   options
	nproc int

	attempted, failed atomic.Int64

	mu       sync.Mutex
	failures []string
	metrics  map[string]metric
}

// op counts one operation; a non-nil err counts it as failed.
func (r *run) op(err error) bool {
	r.attempted.Add(1)
	if err == nil {
		return true
	}
	r.fail(err.Error())
	return false
}

// check counts one correctness check as an operation that fails unless ok.
func (r *run) check(ok bool, format string, args ...any) bool {
	if ok {
		r.attempted.Add(1)
		return true
	}
	return r.op(fmt.Errorf(format, args...))
}

// fail records a failed operation.
func (r *run) fail(msg string) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
	r.mu.Unlock()
}

// set reports a metric and echoes it on a comment line.
func (r *run) set(name string, value float64, unit string) {
	r.mu.Lock()
	r.metrics[name] = metric{Value: value, Unit: unit}
	r.mu.Unlock()
}

// note prints a comment line to standard output (never the last line).
func note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

var workloads = map[string]func(*run) error{
	"cold-design": coldDesign,
	"fleet-tree":  fleetTree,
	"serve-wal":   serveWAL,
}

func main() {
	var opt options
	var trace int
	flag.StringVar(&opt.workload, "workload", "", "workload: cold-design, fleet-tree or serve-wal")
	flag.Int64Var(&opt.seed, "seed", 20180601, "input seed")
	flag.Float64Var(&opt.seconds, "seconds", 10, "measured seconds of the timed phase")
	flag.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	flag.StringVar(&opt.data, "data", ".bench_build/data", "scratch directory for server data")
	flag.Parse()
	opt.trace = trace == 1
	fn, ok := workloads[opt.workload]
	if !ok || (trace != 0 && trace != 1) || opt.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n",
			opt.workload, trace, opt.seconds)
		os.Exit(2)
	}
	r := &run{opt: opt, nproc: runtime.GOMAXPROCS(0), metrics: map[string]metric{}}
	fsync, err := fsyncProbe(opt.data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	note("host num_cpu=%d GOMAXPROCS=%d go=%s fsync_us=%.1f", runtime.NumCPU(), r.nproc,
		runtime.Version(), fsync)
	note("run workload=%s seed=%d seconds=%g trace=%d", opt.workload, opt.seed, opt.seconds, trace)
	if opt.trace {
		r.set("serve.fsync_us", fsync, "us")
	}
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", opt.workload, err)
		os.Exit(1)
	}
	want := endToEnd
	if opt.trace {
		want = perLayer
	}
	out := result{Metrics: map[string]metric{}}
	for _, d := range want {
		m, ok := r.metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.name)
			os.Exit(1)
		}
		if m.Unit != d.unit {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has unit %s, want %s\n", d.name, m.Unit, d.unit)
			os.Exit(1)
		}
		out.Metrics[d.name] = m
		note("metric %-34s %14.6g %s", d.name, m.Value, m.Unit)
	}
	out.Attempted, out.Failed = r.attempted.Load(), r.failed.Load()
	out.Correct = out.Failed == 0 && out.Attempted > 0
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "perfbench: failed: %s\n", f)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// metricDef names a metric the benchmark reports and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every workload reports with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"design_s", "s"},
	{"exd_ratio", "ratio"},
	{"board_intervals_per_s", "1/s"},
	{"fleet_edp", "J.s"},
	{"step_p50_ms", "ms"},
	{"serve_req_per_s", "1/s"},
	{"recover_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every workload reports with -trace 1.
var perLayer = []metricDef{
	{"core.identify_s", "s"},
	{"sysid.fit_s", "s"},
	{"robust.hw_ladder_s", "s"},
	{"robust.os_ladder_s", "s"},
	{"robust.candidate_s", "s"},
	{"robust.lower_bound_s", "s"},
	{"robust.candidates", "count"},
	{"core.validate_hw_s", "s"},
	{"core.validate_os_s", "s"},
	{"core.validation_run_ms", "ms"},
	{"core.design_cpu_util", "frac"},
	{"robust.mu_upper_ms", "ms"},
	{"robust.mu_upper_allocs", "count"},
	{"robust.mu_lower_ms", "ms"},
	{"mat.cmaxsv_us", "us"},
	{"mat.cmaxsv_allocs", "count"},
	{"lti.evaluate_us", "us"},
	{"ssvctl.step_us", "us"},
	{"ssvctl.step_allocs", "count"},
	{"ssvctl.step_share", "frac"},
	{"board.interval_us", "us"},
	{"board.interval_allocs", "count"},
	{"board.interval_share", "frac"},
	{"fault.tap_ns", "ns"},
	{"fault.tap_share", "frac"},
	{"heuristic.step_us", "us"},
	{"heuristic.step_share", "frac"},
	{"lqgctl.step_us", "us"},
	{"lqgctl.step_share", "frac"},
	{"supervisor.step_us", "us"},
	{"supervisor.step_share", "frac"},
	{"fleet.realloc_us", "us"},
	{"fleet.node_reallocs", "count"},
	{"sched.event_ns", "ns"},
	{"obs.record_ns", "ns"},
	{"obs.record_share", "frac"},
	{"core.pool_util", "frac"},
	{"core.fleet_unattributed_frac", "frac"},
	{"core.steprun_us_per_interval", "us"},
	{"core.steprun_share", "frac"},
	{"serve.stage_admission_us", "us"},
	{"serve.stage_step_exec_us", "us"},
	{"serve.stage_wal_append_us", "us"},
	{"serve.stage_trace_encode_us", "us"},
	{"serve.step_p99_ms", "ms"},
	{"serve.create_ms", "ms"},
	{"serve.trace_ms", "ms"},
	{"serve.delete_ms", "ms"},
	{"serve.healthz_rtt_us", "us"},
	{"serve.wal_bytes_per_step", "B"},
	{"serve.replayed_steps", "count"},
	{"serve.fsync_us", "us"},
	{"obs.jsonl_mb_per_s", "MB/s"},
	{"obs.prom_scrape_ms", "ms"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.alloc_mb", "MB"},
	{"trace.overhead_s", "s"},
}
