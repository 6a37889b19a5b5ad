package exp

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"yukta/internal/pool"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 50} {
		const n = 37
		counts := make([]int, n)
		var mu sync.Mutex
		err := pool.ForEach(workers, n, func(i int) error {
			mu.Lock()
			counts[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
	if err := pool.ForEach(4, 0, func(int) error { t.Fatal("ran on n=0"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachReturnsTheFailingJobsError(t *testing.T) {
	want := errors.New("job 7 failed")
	for _, workers := range []int{1, 4} {
		err := pool.ForEach(workers, 20, func(i int) error {
			if i == 7 {
				return want
			}
			return nil
		})
		if !errors.Is(err, want) {
			t.Fatalf("workers=%d: got %v, want %v", workers, err, want)
		}
	}
}

func TestForEachSequentialStopsAtFirstError(t *testing.T) {
	calls := 0
	err := pool.ForEach(1, 10, func(i int) error {
		calls++
		if i == 3 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || calls != 4 {
		t.Fatalf("got err=%v after %d calls, want error after 4", err, calls)
	}
}

func TestForEachParallelReturnsLowestRecordedError(t *testing.T) {
	// Every job fails; whatever subset runs before the failed flag stops the
	// rest, the error that comes back must be the lowest-index one recorded —
	// and since job 0 always runs, that is deterministic here.
	err := pool.ForEach(4, 16, func(i int) error { return fmt.Errorf("err-%02d", i) })
	if err == nil || err.Error() != "err-00" {
		t.Fatalf("got %v, want err-00", err)
	}
}

// TestParallelMatchesSequential is the harness determinism guarantee: the
// same figure run fully sequentially and with a large worker pool must
// produce identical values and byte-identical rendered tables. It covers a
// bar-chart matrix (Fig9), a trace figure (Fig10) and the ablation sums.
func TestParallelMatchesSequential(t *testing.T) {
	c := testContext(t)
	apps := []string{"gamess", "blackscholes"}
	seq := &Context{P: c.P, Parallelism: 1}
	par := &Context{P: c.P, Parallelism: 8}

	exdS, timesS, err := seq.Fig9(apps)
	if err != nil {
		t.Fatal(err)
	}
	exdP, timesP, err := par.Fig9(apps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exdS.Values, exdP.Values) {
		t.Errorf("E×D values differ between sequential and parallel runs:\nseq: %+v\npar: %+v",
			exdS.Values, exdP.Values)
	}
	if got, want := exdP.Render(), exdS.Render(); got != want {
		t.Errorf("rendered E×D tables differ:\n--- sequential ---\n%s\n--- parallel ---\n%s", want, got)
	}
	if got, want := timesP.Render(), timesS.Render(); got != want {
		t.Errorf("rendered time tables differ:\n--- sequential ---\n%s\n--- parallel ---\n%s", want, got)
	}

	trS, err := seq.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	trP, err := par.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trS, trP) {
		t.Errorf("Fig10 traces differ between sequential and parallel runs")
	}
	if got, want := trP.Render(), trS.Render(); got != want {
		t.Errorf("rendered Fig10 differs:\n--- sequential ---\n%s\n--- parallel ---\n%s", want, got)
	}

	ablS, err := seq.AblationReport(apps)
	if err != nil {
		t.Fatal(err)
	}
	ablP, err := par.AblationReport(apps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ablS, ablP) {
		t.Errorf("ablation differs between sequential and parallel runs:\nseq: %+v\npar: %+v", ablS, ablP)
	}
}
