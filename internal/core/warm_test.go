package core

import (
	"sync"
	"testing"

	"yukta/internal/obs"
	"yukta/internal/robust"
)

// TestWarmCachesConcurrentSingleFlight drives concurrent controller synthesis
// through the validated-cache accessors from 2g goroutines, on a knob set no
// other test touches (so the cache entries are cold). The g warming
// goroutines ask for the designs the way a warm-up phase would, half of them
// software design first; the other g ask hardware first, as a scheme does.
// Under -race this exercises the single-flight cache; functionally it checks
// that every caller gets the same controller instance — the synthesis ran
// once.
func TestWarmCachesConcurrentSingleFlight(t *testing.T) {
	p := testPlatform(t)
	hp := DefaultHWParams()
	hp.PerfBoundFrac *= 1.5
	hp.CriticalBoundFrac *= 1.5
	op := DefaultOSParams()
	op.BoundFrac *= 1.5

	const g = 4
	var wg sync.WaitGroup
	hws := make([]*robust.Controller, 2*g)
	oss := make([]*robust.Controller, 2*g)
	errs := make([]error, 2*g)
	get := func(i int, osFirst bool) {
		defer wg.Done()
		var err error
		if osFirst {
			if oss[i], err = p.OSControllerValidated(op); err == nil {
				hws[i], err = p.HWControllerValidated(hp)
			}
		} else {
			if hws[i], err = p.HWControllerValidated(hp); err == nil {
				oss[i], err = p.OSControllerValidated(op)
			}
		}
		errs[i] = err
	}
	for i := 0; i < g; i++ {
		wg.Add(2)
		go get(i, i%2 == 1)
		go get(g+i, false)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	for i := 1; i < 2*g; i++ {
		if hws[i] != hws[0] {
			t.Errorf("HW controller synthesized more than once: %p vs %p", hws[i], hws[0])
		}
		if oss[i] != oss[0] {
			t.Errorf("OS controller synthesized more than once: %p vs %p", oss[i], oss[0])
		}
	}
	// The warmed entries must be the ones the accessors hand out.
	hw, err := p.HWControllerValidated(hp)
	if err != nil || hw != hws[0] {
		t.Errorf("post-warm accessor returned %p (err %v), want cached %p", hw, err, hws[0])
	}
}

// TestLQGControllerCaches checks the single-flight LQG accessors return
// stable instances.
func TestLQGControllerCaches(t *testing.T) {
	p := testPlatform(t)
	m1, err := p.MonolithicLQGController()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := p.MonolithicLQGController()
	if err != nil || m1 != m2 {
		t.Errorf("monolithic LQG cache returned distinct instances (%p, %p, err %v)", m1, m2, err)
	}
	h1, o1, err := p.DecoupledLQGControllers()
	if err != nil {
		t.Fatal(err)
	}
	h2, o2, err := p.DecoupledLQGControllers()
	if err != nil || h1 != h2 || o1 != o2 {
		t.Errorf("decoupled LQG cache returned distinct instances")
	}
}

// TestSynthCacheAccounting checks the exact synth_cache_hits_total and
// synth_cache_misses_total counts of the four controller accessors: the
// first access to a design is the miss, every later access a hit, and
// OSControllerValidated also counts its lookup of the default hardware
// design. The platform shares the test platform's models but starts with
// cold caches, so the counts do not depend on which tests ran before.
func TestSynthCacheAccounting(t *testing.T) {
	shared := testPlatform(t)
	p := &Platform{Cfg: shared.Cfg, Lim: shared.Lim, Data: shared.Data,
		HW: shared.HW, OS: shared.OS, HWOnly: shared.HWOnly, OSOnly: shared.OSOnly, Mono: shared.Mono}
	reg := obs.NewRegistry()
	p.AttachMetrics(reg)

	hw := func() error { _, err := p.HWControllerValidated(DefaultHWParams()); return err }
	os := func() error { _, err := p.OSControllerValidated(DefaultOSParams()); return err }
	mono := func() error { _, err := p.MonolithicLQGController(); return err }
	decoup := func() error { _, _, err := p.DecoupledLQGControllers(); return err }
	for _, c := range []struct {
		name         string
		call         func() error
		hits, misses int64 // cumulative
	}{
		{"HW first", hw, 0, 1},
		{"HW repeat", hw, 1, 1},
		{"OS first", os, 2, 2}, // default-HW hit, OS miss
		{"OS repeat", os, 4, 2},
		{"monolithic LQG first", mono, 4, 3},
		{"monolithic LQG repeat", mono, 5, 3},
		{"decoupled LQG first", decoup, 5, 4},
		{"decoupled LQG repeat", decoup, 6, 4},
	} {
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		hits := reg.Counter("synth_cache_hits_total").Value()
		misses := reg.Counter("synth_cache_misses_total").Value()
		if hits != c.hits || misses != c.misses {
			t.Errorf("after %s: hits %d misses %d, want %d and %d", c.name, hits, misses, c.hits, c.misses)
		}
	}
}
