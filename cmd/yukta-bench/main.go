// Command yukta-bench regenerates the tables and figures of the paper's
// evaluation (Section VI) and prints them as text tables and ASCII charts.
//
// Usage:
//
//	yukta-bench -list
//	yukta-bench -fig 9            # Figure 9 (a) and (b), full suite
//	yukta-bench -fig 9 -quick     # representative 4-app subset
//	yukta-bench -table 2          # Table II
//	yukta-bench -all              # everything (long)
//	yukta-bench -csv out/         # also dump time-series CSVs for trace figures
//	yukta-bench -faults           # robustness sweep: E×D degradation vs fault intensity
//	yukta-bench -faults -quick -faultseed 7
//	yukta-bench -faults -supervise # add the supervised SSV scheme + per-class supervised table
//	yukta-bench -faults -quick -supervise -trace traces/ -metrics
//	yukta-bench -faults -quick -cpuprofile cpu.pprof -memprofile mem.pprof
//	yukta-bench -fleet 16             # 16 boards under a shared budget, both policies
//	yukta-bench -fleet 8 -faults -trace traces/ # fleet sweep across fault classes, with traces
//	yukta-bench -fleet 4 -fleetpolicy feedback -fleetbudget 2.0
//	yukta-bench -fleet 16 -fleet-topo 4x4     # hierarchical: 4 racks of 4 boards
//	yukta-bench -fleetscale 64,256 -scaledepths 1,2 -benchout BENCH_evloop.json
//	yukta-bench -fleetscale 64,256,1024 -scaledepths 1,2 -benchguard BENCH_evloop.json # regression gate
//	yukta-bench -tracecheck traces/ # validate recorded JSONL against the schema
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"yukta/internal/exp"
	"yukta/internal/fleet"
	"yukta/internal/obs"
)

var quickApps = []string{"gamess", "mcf", "blackscholes", "streamcluster"}

// figures lists every -fig name main handles, in -list order.
var figures = []string{"9", "10", "11", "12", "13", "14", "15a", "15b", "16a", "16b", "17", "conv", "abl", "cost"}

// checkFigure rejects a -fig name that no figure answers to ("" selects
// none).
func checkFigure(name string) error {
	if name == "" || slices.Contains(figures, name) {
		return nil
	}
	return fmt.Errorf("unknown figure %q (valid: %s)", name, strings.Join(figures, " "))
}

// checkFleet rejects a -fleetpolicy that is neither "all" nor a policy
// fleet.NewPolicy builds, and a -fleet-topo that fleet.ParseTopology
// rejects or, with a -fleet sweep, whose tree does not cover its boards.
func checkFleet(policy, topo string, boards int) error {
	if policy != "all" {
		if _, err := fleet.NewPolicy(policy); err != nil {
			return fmt.Errorf("-fleetpolicy: %w, or \"all\" for both", err)
		}
	}
	if topo == "" {
		return nil
	}
	t, err := fleet.ParseTopology(topo)
	if err != nil {
		return fmt.Errorf("-fleet-topo: %w", err)
	}
	if boards > 0 && t.Boards != boards {
		return fmt.Errorf("-fleet-topo %q covers %d boards, -fleet is %d", topo, t.Boards, boards)
	}
	return nil
}

func main() {
	var (
		fig       = flag.String("fig", "", "figure to regenerate: "+strings.Join(figures, ", "))
		table     = flag.Int("table", 0, "table to print: 1, 2, 3 or 4")
		all       = flag.Bool("all", false, "regenerate every table and figure")
		quick     = flag.Bool("quick", false, "use a representative 4-app subset for suite figures")
		list      = flag.Bool("list", false, "list available artifacts")
		csvDir    = flag.String("csv", "", "directory to dump time-series CSVs for trace figures")
		parallel  = flag.Int("parallel", 0, "worker goroutines for independent runs (0 = NumCPU, 1 = sequential)")
		faults    = flag.Bool("faults", false, "run the robustness sweep (scheme × fault-intensity degradation table)")
		faultSeed = flag.Int64("faultseed", 1, "base seed of the injected fault campaign")
		supervise = flag.Bool("supervise", false, "add the supervised SSV scheme to the robustness sweep and print the per-class supervised degradation table")
		traceDir  = flag.String("trace", "", "directory for per-run flight-recorder traces (fault sweeps only)")
		metrics   = flag.Bool("metrics", false, "collect a harness-wide metrics registry and print it to stderr on exit")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write an allocation profile to this file on exit")
		traceChk  = flag.String("tracecheck", "", "validate every .jsonl flight-recorder trace in this directory against the record schema, then exit")
		fleetN    = flag.Int("fleet", 0, "run the fleet sweep with this many boards under a shared power budget (0 = off); with -faults the sweep also covers the fault classes")
		fleetPol  = flag.String("fleetpolicy", "all", "fleet budget policy: equal, feedback or all")
		fleetBW   = flag.Float64("fleetbudget", exp.DefaultFleetBoardBudgetW, "per-board share of the shared fleet power budget, in watts")
		fleetScl  = flag.String("fleetscale", "", "run the engine scaling-curve benchmark over these comma-separated fleet sizes (e.g. 64,256)")
		benchOut  = flag.String("benchout", "", "write the scaling-curve benchmark report as JSON to this file")
		fleetTopo = flag.String("fleet-topo", "", "coordinator topology for -fleet sweeps (fleet.ParseTopology grammar, e.g. 4x4 or root=a,b;a=4;b=4); empty = one coordinator over every board")
		sclDepths = flag.String("scaledepths", "", "with -fleetscale, also measure balanced coordinator trees at these comma-separated depths (e.g. 1,2,3)")
		benchGrd  = flag.String("benchguard", "", "committed scaling report JSON (BENCH_evloop.json): fail unless the event engine beats lockstep at the largest -fleetscale size and every measured point matches its committed point (regression gate)")
	)
	flag.Parse()
	for _, err := range []error{checkFigure(*fig), checkFleet(*fleetPol, *fleetTopo, *fleetN)} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "yukta-bench:", err)
			os.Exit(2)
		}
	}

	if *traceChk != "" {
		if err := checkTraces(*traceChk); err != nil {
			fatal(err)
		}
		return
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fatal(err)
			}
			runtime.GC()
			werr := pprof.Lookup("allocs").WriteTo(f, 0)
			cerr := f.Close()
			if werr != nil {
				fatal(werr)
			}
			if cerr != nil {
				fatal(cerr)
			}
		}()
	}

	if *list {
		fmt.Println("figures:", strings.Join(figures, " "))
		fmt.Println("tables:  1 2 3 4")
		return
	}
	if *table != 0 {
		switch *table {
		case 1:
			fmt.Print(exp.TableI())
		case 2:
			fmt.Print(exp.TableII())
		case 3:
			fmt.Print(exp.TableIII())
		case 4:
			fmt.Print(exp.TableIV())
		default:
			fatal(fmt.Errorf("unknown table %d", *table))
		}
		return
	}
	if *fig == "" && !*all && !*faults && *fleetN == 0 && *fleetScl == "" {
		flag.Usage()
		os.Exit(2)
	}

	apps := exp.EvalApps()
	if *quick {
		apps = quickApps
	}

	fmt.Fprintln(os.Stderr, "building platform (identification + model fitting + controller synthesis)...")
	ctx, err := exp.NewContextWithOptions(exp.Options{
		Parallelism:  *parallel,
		Seed:         *faultSeed,
		Supervise:    *supervise,
		TraceDir:     *traceDir,
		Metrics:      *metrics,
		FleetBudgetW: *fleetBW,
		FleetTopo:    *fleetTopo,
	})
	if err != nil {
		fatal(err)
	}
	if ctx.Metrics != nil {
		ctx.Metrics.Publish("yukta")
		defer func() { fmt.Fprint(os.Stderr, ctx.Metrics.Render()) }()
	}

	if *fleetScl != "" {
		ns, err := parseSizes(*fleetScl, "-fleetscale")
		if err != nil {
			fatal(err)
		}
		var depths []int
		if *sclDepths != "" {
			if depths, err = parseSizes(*sclDepths, "-scaledepths"); err != nil {
				fatal(err)
			}
		}
		rep, err := ctx.FleetScale(ns, depths)
		if err != nil {
			fatal(err)
		}
		fmt.Println(rep.Render())
		if *benchOut != "" {
			f, err := os.Create(*benchOut)
			if err != nil {
				fatal(err)
			}
			werr := rep.WriteJSON(f)
			cerr := f.Close()
			if werr != nil {
				fatal(werr)
			}
			if cerr != nil {
				fatal(cerr)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *benchOut)
		}
		if *benchGrd != "" {
			committed, err := exp.ReadFleetScaleReport(*benchGrd)
			if err != nil {
				fatal(err)
			}
			if err := rep.Guard(committed); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "bench guard OK: %d points match %s and the event engine beats lockstep at the largest size\n",
				len(rep.Points), *benchGrd)
		}
		return
	}

	if *fleetN > 0 {
		policies := []string{"equal", "feedback"}
		if *fleetPol != "all" {
			policies = []string{*fleetPol}
		}
		classes := []string{"clean"}
		if *faults {
			classes = append(classes, "dropout", "actuator", "thermal")
		}
		ft, err := ctx.FleetSweep([]int{*fleetN}, policies, classes)
		if err != nil {
			fatal(err)
		}
		fmt.Println(ft.Render())
		return
	}

	if *faults {
		rt, err := ctx.RobustnessSweep(apps, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println(rt.Render())
		if *supervise {
			ct, err := ctx.SupervisedClassSweep(apps, 0)
			if err != nil {
				fatal(err)
			}
			fmt.Println(ct.Render())
		}
		if *fig == "" && !*all {
			return
		}
	}

	want := func(name string) bool { return *all || *fig == name }

	if want("9") {
		exd, times, err := ctx.Fig9(apps)
		if err != nil {
			fatal(err)
		}
		fmt.Println(exd.Render())
		fmt.Println(times.Render())
	}
	if want("10") {
		tr, err := ctx.Fig10()
		if err != nil {
			fatal(err)
		}
		fmt.Println(tr.Render())
		dumpCSV(*csvDir, "fig10", tr)
	}
	if want("11") {
		tr, err := ctx.Fig11()
		if err != nil {
			fatal(err)
		}
		fmt.Println(tr.Render())
		dumpCSV(*csvDir, "fig11", tr)
	}
	if want("12") || want("13") {
		exd, times, err := ctx.Fig12and13(apps)
		if err != nil {
			fatal(err)
		}
		if want("12") || *all {
			fmt.Println(exd.Render())
		}
		if want("13") || *all {
			fmt.Println(times.Render())
		}
	}
	if want("14") {
		exd, err := ctx.Fig14()
		if err != nil {
			fatal(err)
		}
		fmt.Println(exd.Render())
	}
	if want("15a") {
		tr, err := ctx.Fig15a()
		if err != nil {
			fatal(err)
		}
		fmt.Println(tr.Render())
		dumpCSV(*csvDir, "fig15a", tr)
	}
	if want("15b") {
		exd, err := ctx.Fig15b(apps)
		if err != nil {
			fatal(err)
		}
		fmt.Println(exd.Render())
	}
	if want("16a") {
		points, err := ctx.Fig16a()
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.RenderGuardbandPoints(points))
	}
	if want("16b") {
		exd, err := ctx.Fig16b(apps)
		if err != nil {
			fatal(err)
		}
		fmt.Println(exd.Render())
	}
	if want("17") {
		tr, err := ctx.Fig17()
		if err != nil {
			fatal(err)
		}
		fmt.Println(tr.Render())
		dumpCSV(*csvDir, "fig17", tr)
	}
	if want("abl") {
		a, err := ctx.AblationReport(apps)
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.RenderAblation(a))
	}
	if want("conv") {
		cv, err := ctx.ConvergenceReport()
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.RenderConvergence(cv))
	}
	if want("cost") {
		h, err := ctx.HWCostReport()
		if err != nil {
			fatal(err)
		}
		fmt.Println(exp.RenderHWCost(h))
	}
	if *all {
		fmt.Print(exp.TableI())
		fmt.Print(exp.TableII())
		fmt.Print(exp.TableIII())
		fmt.Print(exp.TableIV())
	}
}

// dumpCSV writes each trace of a TraceSet into dir as <prefix>-<name>.csv.
func dumpCSV(dir, prefix string, tr *exp.TraceSet) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	for name, s := range tr.Series {
		clean := strings.Map(func(r rune) rune {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
				return r
			default:
				return '-'
			}
		}, name)
		path := filepath.Join(dir, prefix+"-"+clean+".csv")
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		werr := s.WriteCSV(f)
		cerr := f.Close()
		if werr != nil {
			fatal(werr)
		}
		if cerr != nil {
			fatal(cerr)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
}

// checkTraces validates every .jsonl file in dir against the flight-recorder
// schemas and reports per-file record counts. Files named *.fleet.jsonl are
// coordination-layer traces and validate against the fleet schema; everything
// else validates against the per-run record schema.
func checkTraces(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no .jsonl traces in %s", dir)
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		validate := obs.ValidateJSONL
		if strings.HasSuffix(path, ".fleet.jsonl") {
			validate = obs.ValidateFleetJSONL
		}
		n, verr := validate(f)
		cerr := f.Close()
		if verr != nil {
			return fmt.Errorf("%s: %w", path, verr)
		}
		if cerr != nil {
			return cerr
		}
		fmt.Printf("%s: %d records OK\n", path, n)
	}
	return nil
}

// parseSizes parses a comma-separated list of positive integers for the
// named flag (-fleetscale sizes, -scaledepths depths).
func parseSizes(s, flagName string) ([]int, error) {
	var ns []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid value %q in %s", part, flagName)
		}
		ns = append(ns, n)
	}
	if len(ns) == 0 {
		return nil, fmt.Errorf("%s needs at least one value", flagName)
	}
	return ns, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "yukta-bench:", err)
	os.Exit(1)
}
