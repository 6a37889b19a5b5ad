package main

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestListOrderUnchanged pins the figure names -list prints, in order.
func TestListOrderUnchanged(t *testing.T) {
	want := []string{"9", "10", "11", "12", "13", "14", "15a", "15b", "16a", "16b", "17", "conv", "abl", "cost"}
	if !slices.Equal(figures, want) {
		t.Fatalf("figures = %v, want %v", figures, want)
	}
}

// TestListedFiguresAccepted checks that every listed name passes the -fig
// check and has a branch in main's dispatch.
func TestListedFiguresAccepted(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range append([]string{""}, figures...) {
		if err := checkFigure(name); err != nil {
			t.Errorf("checkFigure(%q) = %v, want nil", name, err)
		}
	}
	for _, name := range figures {
		if !strings.Contains(string(src), `want("`+name+`")`) {
			t.Errorf("figure %q is listed but main has no want(%q) branch", name, name)
		}
	}
}

// TestUnknownFigureRejected checks that a name outside the list fails the
// -fig check with the valid names in the message.
func TestUnknownFigureRejected(t *testing.T) {
	for _, name := range []string{"99", "9a", "ABL", " 9", "15"} {
		err := checkFigure(name)
		if err == nil {
			t.Errorf("checkFigure(%q) = nil, want an error", name)
			continue
		}
		if !strings.Contains(err.Error(), strings.Join(figures, " ")) {
			t.Errorf("checkFigure(%q) = %q, want the valid names listed", name, err)
		}
	}
}

// TestFleetFlagsChecked checks that -fleetpolicy and -fleet-topo are
// validated before the platform is built: the defaults and valid values
// pass; an unknown policy, an unparsable topology, and a tree that does not
// cover the -fleet boards fail, naming the flag.
func TestFleetFlagsChecked(t *testing.T) {
	for _, c := range []struct {
		policy, topo string
		boards       int
	}{
		{"all", "", 0}, {"equal", "", 2}, {"feedback", "4x4", 16}, {"all", "root=a,b;a=4;b=4", 8}, {"all", "4x4", 0},
	} {
		if err := checkFleet(c.policy, c.topo, c.boards); err != nil {
			t.Errorf("checkFleet(%q, %q, %d) = %v, want nil", c.policy, c.topo, c.boards, err)
		}
	}
	for _, c := range []struct {
		policy, topo string
		boards       int
		flag         string
	}{
		{"bogus", "", 2, "-fleetpolicy"},
		{"", "", 0, "-fleetpolicy"},
		{"all", "4xq", 16, "-fleet-topo"},
		{"equal", "root=", 4, "-fleet-topo"},
		{"all", "4x4", 8, "-fleet-topo"},
	} {
		err := checkFleet(c.policy, c.topo, c.boards)
		if err == nil || !strings.HasPrefix(err.Error(), c.flag) {
			t.Errorf("checkFleet(%q, %q, %d) = %v, want an error naming %s", c.policy, c.topo, c.boards, err, c.flag)
		}
	}
}
