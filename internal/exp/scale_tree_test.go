package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFleetScaleTree runs the scaling benchmark at one small size over depths
// {1, 2} and pins its contract: the lockstep and event depth-1 points agree
// on every simulated field, the depth-2 point carries the tree metadata, the
// report round-trips through JSON, and Guard accepts a re-run while
// rejecting tampered outcomes, uncovered sizes and a lost engine speedup.
func TestFleetScaleTree(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated fleet runs; skipped in -short")
	}
	c := testContext(t)
	rep, err := c.FleetScale([]int{9}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 3 {
		t.Fatalf("report has %d points, want 3 (lockstep, event, depth-2 event)", len(rep.Points))
	}
	lock, ev, d2 := rep.Points[0], rep.Points[1], rep.Points[2]
	if lock.Engine != scaleLockstep || ev.Engine != scaleEvent || lock.Depth != 1 || ev.Depth != 1 {
		t.Fatalf("depth-1 engine pair malformed: %+v, %+v", lock, ev)
	}
	if lock.outcome() != ev.outcome() {
		t.Fatalf("engines disagree at depth 1: %+v vs %+v", lock, ev)
	}
	if ev.Nodes != 1 || ev.Steps == 0 {
		t.Fatalf("depth-1 point malformed: %+v", ev)
	}
	if d2.Engine != scaleEvent || d2.Depth != 2 || d2.Nodes <= 1 || d2.Boards != 9 {
		t.Fatalf("depth-2 point malformed: %+v", d2)
	}
	if d2.NodeReallocations <= d2.Reallocations {
		t.Fatalf("depth-2 node reallocations %d should exceed realloc instants %d",
			d2.NodeReallocations, d2.Reallocations)
	}
	if out := rep.Render(); !strings.Contains(out, "node reallocs") || !strings.Contains(out, "EDP vs event") {
		t.Fatalf("render missing columns:\n%s", out)
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	committed, err := ReadFleetScaleReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(committed.Points) != 3 || committed.Points[2] != d2 {
		t.Fatalf("JSON round-trip lost points: %+v", committed.Points)
	}

	rerun, err := c.FleetScale([]int{9}, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rerun.Guard(committed); err != nil {
		t.Fatalf("guard rejected a re-run: %v", err)
	}

	tamper := func(edit func(*FleetScalePoint)) *FleetScaleReport {
		r := *committed
		r.Points = append([]FleetScalePoint(nil), committed.Points...)
		edit(&r.Points[2])
		return &r
	}
	slow := *rerun
	slow.Points = append([]FleetScalePoint(nil), rerun.Points...)
	slow.Points[1].WallMS = slow.Points[0].WallMS
	for _, tc := range []struct {
		name      string
		fresh     *FleetScaleReport
		committed *FleetScaleReport
		want      string
	}{
		{"tampered EDP", rerun, tamper(func(p *FleetScalePoint) { p.EDP *= 1.001 }), "EDP"},
		{"tampered steps", rerun, tamper(func(p *FleetScalePoint) { p.Steps++ }), "counters diverge"},
		{"uncovered size", rerun, &FleetScaleReport{}, "committed report has no"},
		{"no event speedup", &slow, committed, "event engine not faster"},
	} {
		err := tc.fresh.Guard(tc.committed)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: guard returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
