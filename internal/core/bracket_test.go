package core

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"yukta/internal/robust"
)

// TestValidatedBracketOnDemand checks both validated default designs: the
// controller the wait path returns carries its certificate (SSV <= 1,
// SSVLower 0), and its μ bracket satisfies 0 < SSVLower <= refined SSV <=
// certified SSV and is handed out as a copy, so that neither the fill nor
// a caller's edit reaches the shared controller.
func TestValidatedBracketOnDemand(t *testing.T) {
	p := testPlatform(t)
	for _, layer := range []struct {
		name           string
		design, filled func() (*robust.Controller, error)
	}{
		{"HW",
			func() (*robust.Controller, error) { return p.HWControllerValidated(DefaultHWParams()) },
			func() (*robust.Controller, error) { return p.HWControllerBracket(DefaultHWParams()) }},
		{"OS",
			func() (*robust.Controller, error) { return p.OSControllerValidated(DefaultOSParams()) },
			func() (*robust.Controller, error) { return p.OSControllerBracket(DefaultOSParams()) }},
	} {
		ctl, err := layer.design()
		if err != nil {
			t.Fatal(err)
		}
		cert := ctl.Report
		cert.GuaranteedBounds = append([]float64(nil), cert.GuaranteedBounds...)
		if !(cert.SSV <= 1) || cert.SSVLower != 0 || cert.MinS != 1/cert.SSV {
			t.Errorf("%s: wait-path report SSV %v SSVLower %v MinS %v, want a certificate without a bracket",
				layer.name, cert.SSV, cert.SSVLower, cert.MinS)
		}
		got, err := layer.filled()
		if err != nil {
			t.Fatal(err)
		}
		b := got.Report
		if !(0 < b.SSVLower && b.SSVLower <= b.SSV && b.SSV <= cert.SSV) {
			t.Errorf("%s: bracket [%v, %v] with certified SSV %v, want 0 < lower <= refined <= certified",
				layer.name, b.SSVLower, b.SSV, cert.SSV)
		}
		if b.MinS != 1/b.SSV || !reflect.DeepEqual(b.GuaranteedBounds, cert.GuaranteedBounds) {
			t.Errorf("%s: bracket MinS %v, bounds %v; certified bounds %v", layer.name, b.MinS, b.GuaranteedBounds, cert.GuaranteedBounds)
		}
		if got == ctl || got.K != ctl.K {
			t.Errorf("%s: bracket controller %p (K %p), want a copy of %p sharing K %p", layer.name, got, got.K, ctl, ctl.K)
		}
		got.Report.GuaranteedBounds[0] = -1
		if !reflect.DeepEqual(ctl.Report, cert) {
			t.Errorf("%s: shared controller report changed to %+v, want %+v", layer.name, ctl.Report, cert)
		}
		if again, err := layer.filled(); err != nil || again.Report.GuaranteedBounds[0] != cert.GuaranteedBounds[0] {
			t.Errorf("%s: a caller's edit reached the memoized bracket: %+v, %v", layer.name, again.Report, err)
		}
	}
}

// TestBracketFilledOnce asks for the HW and OS brackets from several
// goroutines at once on a platform with cold caches and requires one fill
// per design, with every caller getting the same report. The fill is
// replaced by a counting stub, so the test exercises the memo (under -race,
// its synchronization), not the μ sweeps.
func TestBracketFilledOnce(t *testing.T) {
	base := testPlatform(t)
	p := &Platform{Cfg: base.Cfg, Lim: base.Lim, Data: base.Data,
		HW: base.HW, OS: base.OS, HWOnly: base.HWOnly, OSOnly: base.OSOnly, Mono: base.Mono}
	var fills atomic.Int32
	defer func(f func(*robust.Spec, *robust.Controller)) { fillBracket = f }(fillBracket)
	fillBracket = func(_ *robust.Spec, c *robust.Controller) {
		c.Report.SSVLower = float64(fills.Add(1))
	}

	const callers = 4
	type result struct {
		hw, os *robust.Controller
		err    error
	}
	res := make([]result, 2*callers)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &res[i]
			if i%2 == 0 {
				if r.hw, r.err = p.HWControllerBracket(DefaultHWParams()); r.err == nil {
					r.os, r.err = p.OSControllerBracket(DefaultOSParams())
				}
			} else if r.os, r.err = p.OSControllerBracket(DefaultOSParams()); r.err == nil {
				r.hw, r.err = p.HWControllerBracket(DefaultHWParams())
			}
		}()
	}
	wg.Wait()
	for i, r := range res {
		if r.err != nil {
			t.Fatalf("caller %d: %v", i, r.err)
		}
	}
	if n := fills.Load(); n != 2 {
		t.Fatalf("%d bracket fills for two designs, want 2", n)
	}
	for i, r := range res {
		if !reflect.DeepEqual(r.hw.Report, res[0].hw.Report) || !reflect.DeepEqual(r.os.Report, res[0].os.Report) {
			t.Errorf("caller %d: reports %+v / %+v differ from caller 0's %+v / %+v",
				i, r.hw.Report, r.os.Report, res[0].hw.Report, res[0].os.Report)
		}
	}
}
