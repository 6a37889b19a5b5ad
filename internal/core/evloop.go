package core

import (
	"yukta/internal/pool"
	"yukta/internal/sched"
)

// Event kinds of the fleet's discrete-event engine, in execution order
// within one instant: coordinator work (budget reallocation) strictly
// precedes the board wakes it influences, and board wakes at the same
// instant order by board index. This ordering is what makes the event
// engine a drop-in replacement for the lockstep loop's "reallocate, then
// step every board" interval structure.
const (
	evRealloc int8 = iota
	evWake
)

// runEvent is the fleet's discrete-event engine. Boards interact only
// through their power caps, and caps change only at reallocation points —
// every ReallocEvery intervals — so the reallocation barrier is the sole
// interaction point on the clock. Each epoch the coordinator pops one batch
// of simultaneous events off the heap: the reallocation (kind evRealloc,
// ordered first) followed by the wakes of the still-live boards (kind
// evWake, in board-index order). A woken board then executes every control
// interval up to the barrier in one uninterrupted batch on the worker pool —
// the controller still steps each interval, since its dynamics are
// per-interval state, but the per-interval pool barrier and the
// per-interval scan over all n boards are gone. A finished board schedules
// nothing and falls out of the clock entirely.
//
// Byte-identity with runLockstep (FleetRunLockstep) holds because nothing
// observable moves: boardRun.step is the shared interval body (fault RNG,
// physics, controller, per-board trace), realloc is the shared
// coordinator body and fires at the same instants with boards in the same
// states, and the fleet trace is reconstructed per interval from samples
// latched during the batches (see flushEpoch). The golden suite and
// TestEngineEquivalence pin this.
func (f *fleetRun) runEvent() error {
	if f.maxSteps <= 0 {
		return nil
	}
	nodes := len(f.tree.Nodes)
	h := sched.NewHeap(f.n + nodes)
	// One reallocation event per tree node, each on its own cadence. Event
	// IDs are preorder node indices, so simultaneous events pop parent-first
	// and the due list reaches Tree.Realloc in preorder.
	for i := range f.tree.Nodes {
		h.Push(sched.Event{Time: 0, Kind: evRealloc, ID: int32(i)})
	}
	for _, fb := range f.boards {
		fb.wokeEpoch = -1
		h.Push(sched.Event{Time: 0, Kind: evWake, ID: int32(fb.idx)})
	}
	if f.opt.Trace != nil {
		for _, fb := range f.boards {
			fb.samples = make([]fleetSample, f.epochLen)
		}
	}
	batch := make([]sched.Event, 0, f.n+nodes)
	ready := make([]*fleetBoard, 0, f.n)

	for h.Len() > 0 {
		// Lockstep stops stepping the instant the last board finishes; the
		// heap can still hold future realloc events for slow-cadence
		// coordinators, which must not fire on an empty fleet.
		if f.live.Load() == 0 {
			break
		}
		batch = h.PopBatch(batch[:0])
		t := batch[0].Time
		barrier := t + f.epochLen
		if barrier > f.maxSteps {
			barrier = f.maxSteps
		}
		ready = ready[:0]
		f.due = f.due[:0]
		for _, e := range batch {
			switch e.Kind {
			case evRealloc:
				f.due = append(f.due, int(e.ID))
			case evWake:
				fb := f.boards[e.ID]
				if !fb.done {
					fb.wokeEpoch = t
					ready = append(ready, fb)
				}
			}
		}
		reallocFired := len(f.due) > 0
		if reallocFired {
			f.realloc()
		}
		if len(ready) == 0 {
			continue
		}
		err := pool.ForEachMetered(f.workers, len(ready), f.opt.Metrics, func(k int) error {
			f.runBatch(ready[k], t, barrier)
			return nil
		})
		if err != nil {
			return err
		}
		// Steps counts intervals on the shared clock, as in lockstep: an
		// interval happened if any board executed it.
		epochSteps := 0
		for _, fb := range ready {
			if fb.batchLen > epochSteps {
				epochSteps = fb.batchLen
			}
		}
		f.res.Steps += epochSteps
		if f.opt.Trace != nil {
			f.flushEpoch(t, epochSteps, reallocFired)
		}
		if f.live.Load() > 0 {
			// Each node that fired reschedules on its own period; the
			// others' events are still pending in the heap.
			for _, i := range f.due {
				next := t + f.tree.Nodes[i].Period
				if next < f.maxSteps {
					h.Push(sched.Event{Time: next, Kind: evRealloc, ID: int32(i)})
				}
			}
			if barrier < f.maxSteps {
				for _, fb := range f.boards {
					if !fb.done {
						h.Push(sched.Event{Time: barrier, Kind: evWake, ID: int32(fb.idx)})
					}
				}
			}
		}
	}
	return nil
}

// runBatch executes one board's intervals from start up to the reallocation
// barrier, stopping early when the workload completes. Runs on a pool
// worker; touches only its own board.
func (f *fleetRun) runBatch(fb *fleetBoard, start, barrier int) {
	fb.epochStart = start
	fb.batchLen = 0
	for step := start; step < barrier; step++ {
		f.stepBoard(fb, step)
		fb.batchLen++
		if fb.done {
			break
		}
	}
}

// flushEpoch reconstructs the per-interval fleet-trace records for the epoch
// that started at t, from the samples the boards latched while running
// ahead of the coordinator. The records are byte-identical to the ones the
// lockstep engine writes inline:
//
//   - caps are constant within an epoch (they change only at realloc), so
//     AllocW and the cap min/max need no latching;
//   - a board that executed interval t+j contributes its latched sample,
//     exactly as lockstep reads the board's live state right after that
//     interval's barrier;
//   - a board counts Done from the very interval it finished (lockstep sets
//     fb.done during the step and records after), hence liveAt = batchLen-1
//     for a board that completed this epoch — its final interval is already
//     recorded as Done, contributing only its cap share, like in lockstep.
func (f *fleetRun) flushEpoch(t, epochSteps int, reallocFired bool) {
	for j := 0; j < epochSteps; j++ {
		// One record per tree node, preorder (root first, node path ""),
		// exactly as the lockstep engine's traceStep writes them. Budgets
		// and caps changed only at the epoch start, so reading them at the
		// flush sees the same values every interval of the epoch saw.
		for i := range f.tree.Nodes {
			nd := &f.tree.Nodes[i]
			rec := f.nodeRecord(i, t+j, j == 0 && reallocFired)
			for b := nd.First; b < nd.First+nd.Boards; b++ {
				fb := f.boards[b]
				liveAt := 0
				if fb.wokeEpoch == t {
					liveAt = fb.batchLen
					if fb.done {
						liveAt--
					}
				}
				addBoard(&rec, f.caps[b], j >= liveAt, fb.samples[j], f.cfg.BasePowerW)
			}
			f.opt.Trace.Add(rec)
		}
	}
}
