package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"yukta/internal/core"
	"yukta/internal/fleet"
	"yukta/internal/series"
	"yukta/internal/workload"
)

// Fleet scaling-curve benchmark: wall-clock and EDP of the event engine
// (core.FleetRun) and its lockstep reference (core.FleetRunLockstep) versus
// fleet size and coordinator-tree depth, on a done-heavy board mix. Half the boards run
// a short workload that completes in roughly the first quarter of the run
// and then sits quiescent; the other half run a long workload that never
// completes before MaxTime. The mix is what separates the engines: both
// step live boards identically, but the lockstep engine keeps dispatching
// (and skipping) every done board on every control interval, while the
// event engine drops finished boards off the clock entirely and batches
// each live board's epoch into one cache-warm run.
const (
	// scaleMaxTime bounds one scale-point run (in simulated time).
	scaleMaxTime = 120 * time.Second
	// scaleShortGInst sizes the short app so it completes near the first
	// quarter of the run at the default per-board budget; scaleLongGInst
	// sizes the long app so it cannot complete before MaxTime.
	scaleShortGInst = 100
	scaleLongGInst  = 5000
	// scaleWorkers is the benchmark's canonical pool width when the context
	// does not pin one: the scaling curve measures the engines under pooled
	// board stepping — the fleet runner's intended configuration, and the
	// regime where the lockstep engine's per-interval barrier actually
	// costs (spawn + channel rendezvous per interval, versus once per
	// reallocation epoch on the event engine). Sequential stepping differs
	// only by the done-board scan, which is noise next to board physics.
	scaleWorkers = 4
	// scaleReps runs each (engine, size, depth) cell this many times and
	// keeps the fastest wall-clock — standard minimum-of-k timing to shed
	// scheduler noise. Repetitions interleave a size's cells (lockstep,
	// event, deeper trees, lockstep, ...) so a transient host load spike
	// lands on every cell instead of biasing one. Simulation outputs are
	// identical across reps by construction.
	scaleReps = 5
)

// Engine labels of the scaling report's points.
const (
	scaleLockstep = "lockstep" // core.FleetRunLockstep
	scaleEvent    = "event"    // core.FleetRun
)

// scaleApp builds one synthetic steady-phase board workload.
func scaleApp(name string, gInst float64) (workload.Workload, error) {
	return workload.NewApp(name, "SCALE", gInst, []workload.Phase{
		{WorkFrac: 1.0, Threads: 8, MemBound: 0.25, IPCBig: 1.4, IPCLittle: 0.70},
	})
}

// scaleMembers builds the done-heavy fleet: even boards short, odd boards
// long, every board running the coordinated heuristic (the cheapest
// controller, so the measurement exposes engine overhead rather than
// controller arithmetic).
func (c *Context) scaleMembers(n int) ([]core.FleetMember, error) {
	sch := c.P.CoordinatedHeuristic()
	members := make([]core.FleetMember, n)
	for i := range members {
		name, g := "scale-short", float64(scaleShortGInst)
		if i%2 == 1 {
			name, g = "scale-long", float64(scaleLongGInst)
		}
		w, err := scaleApp(name, g)
		if err != nil {
			return nil, err
		}
		members[i] = core.FleetMember{Scheme: sch, Workload: w}
	}
	return members, nil
}

// FleetScalePoint is one (engine, fleet size, tree depth) measurement. Every
// run coordinates its boards through the balanced tree fleet.Uniform(Boards,
// Depth). Depth 1 is the one-level tree a Topology-less fleet run uses, so the
// depth-1 points are the engine curve; deeper event points add the hierarchy
// axis — their EDP delta is the hierarchy's cost or gain, their wall-clock
// its overhead.
type FleetScalePoint struct {
	Engine string `json:"engine"`
	Boards int    `json:"boards"`
	// Depth is the coordinator tree's level count; Topo its spec and Nodes
	// its coordinator count.
	Depth int    `json:"depth"`
	Topo  string `json:"topo"`
	Nodes int    `json:"nodes"`
	// WallMS is the fastest host wall-clock of the fleet run over scaleReps
	// runs, in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// Steps, Reallocations and NodeReallocations are the simulation's own
	// counters (identical across engines — the engines differ in
	// wall-clock, never in results); NodeReallocations counts per-node
	// policy invocations across the whole tree.
	Steps             int `json:"steps"`
	Reallocations     int `json:"reallocations"`
	NodeReallocations int `json:"node_reallocations"`
	// MakespanS, EnergyJ and EDP summarize the simulated outcome.
	MakespanS float64 `json:"makespan_s"`
	EnergyJ   float64 `json:"energy_j"`
	EDP       float64 `json:"edp_js"`
	// DoneBoardFrac is the fraction of boards that completed before MaxTime;
	// QuiescentFrac is the fraction of (board × clock-interval) slots that
	// were quiescent — a done board sitting out the rest of the run. The
	// scaling gate requires QuiescentFrac ≥ 0.25, the regime the event
	// engine is built for.
	DoneBoardFrac float64 `json:"done_board_frac"`
	QuiescentFrac float64 `json:"quiescent_frac"`
}

// outcome is the point with its host-dependent fields cleared: what the
// simulation alone determines, on which both engines must agree.
func (p FleetScalePoint) outcome() FleetScalePoint {
	p.Engine, p.WallMS = "", 0
	return p
}

// FleetScaleReport is the scaling-curve benchmark result across engines,
// fleet sizes and tree depths, with enough host context to interpret the
// wall-clocks.
type FleetScaleReport struct {
	GOOS        string  `json:"goos"`
	GOARCH      string  `json:"goarch"`
	NumCPU      int     `json:"num_cpu"`
	Parallelism int     `json:"parallelism"`
	Date        string  `json:"date"`
	MaxTimeS    float64 `json:"max_time_s"`
	Scheme      string  `json:"scheme"`
	Policy      string  `json:"policy"`
	// Points holds, for every fleet size, the depth-1 lockstep point, the
	// depth-1 event point, then one event point per extra tree depth.
	Points []FleetScalePoint `json:"points"`
}

// scaleParallelism resolves the pool width of one scale run.
func (c *Context) scaleParallelism() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return scaleWorkers
}

// FleetScaleRun executes the done-heavy scale scenario once under the
// default one-level tree, on the named engine: "event" (core.FleetRun) or
// "lockstep" (core.FleetRunLockstep). BenchmarkFleetStep times it.
func (c *Context) FleetScaleRun(n int, engine string) (*core.FleetResult, error) {
	return c.scaleRun(engine, n, 1)
}

// scaleRun executes the done-heavy scale scenario once under the balanced
// coordinator tree fleet.Uniform(n, depth), with one fresh feedback policy
// per tree node, on the named engine.
func (c *Context) scaleRun(engine string, n, depth int) (*core.FleetResult, error) {
	run := core.FleetRun
	switch engine {
	case scaleEvent:
	case scaleLockstep:
		run = core.FleetRunLockstep
	default:
		return nil, fmt.Errorf("exp: unknown engine %q (want %q or %q)", engine, scaleEvent, scaleLockstep)
	}
	topo, err := fleet.Uniform(n, depth)
	if err != nil {
		return nil, err
	}
	members, err := c.scaleMembers(n)
	if err != nil {
		return nil, err
	}
	opt := core.FleetOptions{
		Budget: fleet.Budget{
			TotalW: DefaultFleetBoardBudgetW * float64(n),
			MinW:   DefaultFleetMinCapW,
			MaxW:   DefaultFleetMaxCapW,
		},
		Topology:    topo,
		TreePolicy:  treePolicyFactory("feedback"),
		MaxTime:     scaleMaxTime,
		Parallelism: c.scaleParallelism(),
	}
	return run(c.P.Cfg, members, opt)
}

// makeScalePoint folds one run into its report row.
func makeScalePoint(eng string, n int, res *core.FleetResult, wall time.Duration) FleetScalePoint {
	pt := FleetScalePoint{
		Engine:            eng,
		Boards:            n,
		Depth:             res.Depth,
		Topo:              res.Topology,
		Nodes:             res.Nodes,
		WallMS:            float64(wall.Nanoseconds()) / 1e6,
		Steps:             res.Steps,
		Reallocations:     res.Reallocations,
		NodeReallocations: res.NodeReallocations,
		MakespanS:         res.MakespanS,
		EnergyJ:           res.EnergyJ,
		EDP:               res.EDP,
	}
	// Quiescence: a board's physics time advances only while it is stepped,
	// so TimeS / interval is exactly the number of intervals it executed.
	intervalS := 0.5
	var executed float64
	done := 0
	for _, br := range res.Boards {
		executed += br.TimeS / intervalS
		if br.Completed {
			done++
		}
	}
	pt.DoneBoardFrac = float64(done) / float64(n)
	if res.Steps > 0 {
		pt.QuiescentFrac = 1 - executed/float64(n*res.Steps)
	}
	return pt
}

// FleetScale runs the scaling-curve benchmark over the given fleet sizes
// (default {16, 64, 256}). At each size it times the identical done-heavy
// fleet run on the lockstep and the event engine under the one-level tree,
// then on the event engine under a balanced tree of every depth ≥ 2 in
// depths. A size's cells are interleaved rep by rep and each keeps its
// fastest of scaleReps wall-clocks. The two engines must reproduce each
// other's simulated outcome exactly — they may only differ in wall-clock.
func (c *Context) FleetScale(ns, depths []int) (*FleetScaleReport, error) {
	if len(ns) == 0 {
		ns = []int{16, 64, 256}
	}
	rep := &FleetScaleReport{
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		Parallelism: c.scaleParallelism(),
		Date:        time.Now().UTC().Format("2006-01-02"),
		MaxTimeS:    scaleMaxTime.Seconds(),
		Scheme:      "coordinated-heuristic",
		Policy:      "feedback",
	}
	for _, n := range ns {
		cells := []FleetScalePoint{
			{Engine: scaleLockstep, Boards: n, Depth: 1},
			{Engine: scaleEvent, Boards: n, Depth: 1},
		}
		for _, d := range depths {
			if d != 1 {
				cells = append(cells, FleetScalePoint{Engine: scaleEvent, Boards: n, Depth: d})
			}
		}
		for r := 0; r < scaleReps; r++ {
			for i, cell := range cells {
				start := time.Now()
				res, err := c.scaleRun(cell.Engine, n, cell.Depth)
				wall := time.Since(start)
				if err != nil {
					return nil, fmt.Errorf("exp: fleet scale N=%d depth %d %s: %w", n, cell.Depth, cell.Engine, err)
				}
				if pt := makeScalePoint(cell.Engine, n, res, wall); r == 0 || pt.WallMS < cells[i].WallMS {
					cells[i] = pt
				}
			}
		}
		if cells[0].outcome() != cells[1].outcome() {
			return nil, fmt.Errorf("exp: engines disagree at N=%d: lockstep %+v vs event %+v", n, cells[0], cells[1])
		}
		rep.Points = append(rep.Points, cells...)
	}
	return rep, nil
}

// find returns the report's point for (engine, boards, depth), or nil.
func (r *FleetScaleReport) find(engine string, boards, depth int) *FleetScalePoint {
	for i := range r.Points {
		if p := &r.Points[i]; p.Engine == engine && p.Boards == boards && p.Depth == depth {
			return p
		}
	}
	return nil
}

// Guard is the scaling benchmark's regression gate: it checks a freshly
// measured report r against a committed one (BENCH_evloop.json).
//
// At r's largest fleet size the scenario must be meaningfully done-heavy
// (≥25% quiescent board-intervals) and the event engine strictly faster
// than lockstep. Smaller sizes are not gated there — at small N both
// engines are dominated by board physics and the difference is noise-level.
//
// Every point of r must also match the committed point with the same
// (engine, boards, depth). The simulation is deterministic, so steps and
// reallocation counts must match exactly and the EDP to 1e-9 relative (JSON
// round-trip slack); the wall-clock may drift with the host but not past 5×
// the committed value.
func (r *FleetScaleReport) Guard(committed *FleetScaleReport) error {
	n := 0
	for _, p := range r.Points {
		n = max(n, p.Boards)
	}
	lock, ev := r.find(scaleLockstep, n, 1), r.find(scaleEvent, n, 1)
	if lock == nil || ev == nil {
		return fmt.Errorf("exp: scale report has no depth-1 engine pair at its largest size N=%d", n)
	}
	if ev.QuiescentFrac < 0.25 {
		return fmt.Errorf("exp: scale scenario at N=%d is only %.1f%% quiescent, want ≥25%%",
			n, 100*ev.QuiescentFrac)
	}
	if ev.WallMS >= lock.WallMS {
		return fmt.Errorf("exp: event engine not faster at N=%d: %.1f ms vs lockstep %.1f ms",
			n, ev.WallMS, lock.WallMS)
	}
	for _, p := range r.Points {
		want := committed.find(p.Engine, p.Boards, p.Depth)
		if want == nil {
			return fmt.Errorf("exp: committed report has no %s point for %d boards at depth %d",
				p.Engine, p.Boards, p.Depth)
		}
		if p.Steps != want.Steps || p.Reallocations != want.Reallocations ||
			p.NodeReallocations != want.NodeReallocations {
			return fmt.Errorf("exp: %s N=%d depth %d counters diverge from committed point: steps %d/%d reallocs %d/%d node reallocs %d/%d",
				p.Engine, p.Boards, p.Depth, p.Steps, want.Steps, p.Reallocations, want.Reallocations,
				p.NodeReallocations, want.NodeReallocations)
		}
		if relDiff(p.EDP, want.EDP) > 1e-9 {
			return fmt.Errorf("exp: %s N=%d depth %d EDP %.9g diverges from committed %.9g",
				p.Engine, p.Boards, p.Depth, p.EDP, want.EDP)
		}
		if want.WallMS > 0 && p.WallMS > 5*want.WallMS {
			return fmt.Errorf("exp: %s N=%d depth %d took %.1f ms, over 5x the committed %.1f ms",
				p.Engine, p.Boards, p.Depth, p.WallMS, want.WallMS)
		}
	}
	return nil
}

// relDiff is the symmetric relative difference, 0 when both values are 0.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return d / m
}

// ReadFleetScaleReport loads a committed scaling report (BENCH_evloop.json)
// for guard comparisons.
func ReadFleetScaleReport(path string) (*FleetScaleReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r FleetScaleReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("exp: parsing %s: %w", path, err)
	}
	return &r, nil
}

// WriteJSON writes the report as indented JSON.
func (r *FleetScaleReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render draws the scaling curve as one aligned table. Each row's speedup
// and EDP are relative to the depth-1 event row at the same fleet size.
func (r *FleetScaleReport) Render() string {
	tab := &series.Table{Header: []string{
		"boards", "engine", "depth", "nodes", "wall ms", "speedup", "steps",
		"node reallocs", "quiescent", "done boards", "EDP J·s", "EDP vs event"}}
	for i, p := range r.Points {
		boards := ""
		if i == 0 || r.Points[i-1].Boards != p.Boards {
			boards = fmt.Sprintf("%d", p.Boards)
		}
		speedup, edpRel := "-", "-"
		if ev := r.find(scaleEvent, p.Boards, 1); ev != nil {
			if p.WallMS > 0 {
				speedup = fmt.Sprintf("%.2f", ev.WallMS/p.WallMS)
			}
			if ev.EDP != 0 {
				edpRel = fmt.Sprintf("%+.3f%%", 100*(p.EDP-ev.EDP)/ev.EDP)
			}
		}
		tab.AddRow(boards, p.Engine, fmt.Sprintf("%d", p.Depth), fmt.Sprintf("%d", p.Nodes),
			fmt.Sprintf("%.1f", p.WallMS), speedup,
			fmt.Sprintf("%d", p.Steps), fmt.Sprintf("%d", p.NodeReallocations),
			fmt.Sprintf("%.0f%%", 100*p.QuiescentFrac),
			fmt.Sprintf("%.0f%%", 100*p.DoneBoardFrac),
			fmt.Sprintf("%.0f", p.EDP), edpRel)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fleet scaling curve (%s/%s, %d CPUs, parallelism %d, %s scheme, %s policy per tree node, %.0f s simulated)\n",
		r.GOOS, r.GOARCH, r.NumCPU, r.Parallelism, r.Scheme, r.Policy, r.MaxTimeS)
	tab.Render(&sb)
	return sb.String()
}
