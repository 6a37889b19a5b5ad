package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"yukta/internal/board"
	"yukta/internal/core"
	"yukta/internal/heuristic"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// seconds returns the time elapsed since t0, in seconds.
func seconds(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// mallocs returns the cumulative count of heap allocations.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runtimeCosts returns the share of the process's CPU time spent in garbage
// collection and the MB allocated so far.
func runtimeCosts() (gcFrac, allocMB float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 ||
		s[2].Value.Kind() != metrics.KindUint64 {
		return math.NaN(), math.NaN()
	}
	return s[0].Value.Float64() / s[1].Value.Float64(), float64(s[2].Value.Uint64()) / (1 << 20)
}

// seeded derives a deterministic sub-seed from the run seed and a path of
// integers, so every generated input is a function of (seed, its role).
func seeded(seed int64, path ...int) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	for _, p := range path {
		fmt.Fprintf(h, "/%d", p)
	}
	return int64(h.Sum64() >> 1)
}

// fsyncProbe times a small write plus Sync in dir, the host property that
// bounds every acknowledged WAL append, and returns the median in µs.
func fsyncProbe(dir string) (float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("fsync probe: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("fsync-probe-%d", os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("fsync probe: %w", err)
	}
	defer os.Remove(path)
	defer f.Close()
	buf := make([]byte, 256)
	var us []float64
	for i := 0; i < 40; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, fmt.Errorf("fsync probe: %w", err)
		}
		if err := f.Sync(); err != nil {
			return 0, fmt.Errorf("fsync probe: %w", err)
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us), nil
}

// newPlatform identifies the board and fits its models, as every command of
// the repository does before it can run a scheme.
func newPlatform() (*core.Platform, error) {
	return core.NewPlatform(board.DefaultConfig(), core.DefaultIdentifyOptions())
}

// newPlatformTimed builds the same platform as core.NewPlatform, step by
// step, and times identification and the five model fits separately.
func newPlatformTimed() (p *core.Platform, identifyS, fitS float64, err error) {
	cfg := board.DefaultConfig()
	t0 := time.Now()
	td, err := core.CollectTrainingData(cfg, core.DefaultIdentifyOptions())
	if err != nil {
		return nil, 0, 0, err
	}
	identifyS = seconds(t0)
	t1 := time.Now()
	p = &core.Platform{Cfg: cfg, Lim: heuristic.DefaultLimits(), Data: td}
	if p.HW, err = td.HWModel(); err == nil {
		if p.OS, err = td.OSModel(); err == nil {
			if p.HWOnly, err = td.HWOnlyModel(); err == nil {
				if p.OSOnly, err = td.OSOnlyModel(); err == nil {
					p.Mono, err = td.MonoModel()
				}
			}
		}
	}
	if err != nil {
		return nil, 0, 0, err
	}
	return p, identifyS, seconds(t1), nil
}

// coldCopy returns a platform with p's identified models and no designed
// controllers, so the next design on it is cold.
func coldCopy(p *core.Platform) *core.Platform {
	return &core.Platform{Cfg: p.Cfg, Lim: p.Lim, Data: p.Data,
		HW: p.HW, OS: p.OS, HWOnly: p.HWOnly, OSOnly: p.OSOnly, Mono: p.Mono}
}

// Repetitions of the timed samples that make up one figure: set-ups (each a
// full platform build) and recoveries.
const (
	setupRepeats   = 7
	recoverRepeats = 15
)

// setupReps builds the platform setupRepeats times, each followed by extra
// (the rest of the workload's set-up), and reports the median as setup_s. It
// returns the last platform.
func setupReps(r *run, extra func(p *core.Platform) error) (*core.Platform, error) {
	var times []float64
	var p *core.Platform
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // start every repetition from the same heap
		t0 := time.Now()
		var err error
		if p, err = newPlatform(); err != nil {
			return nil, fmt.Errorf("platform: %w", err)
		}
		if extra != nil {
			if err := extra(p); err != nil {
				return nil, err
			}
		}
		times = append(times, seconds(t0))
		r.op(nil)
	}
	r.set("setup_s", median(times), "s")
	note("setup_s samples=%d", len(times))
	return p, nil
}
