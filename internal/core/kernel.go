package core

// The speculation kernel: the run plumbing both protocols share. A
// speculative run under either protocol has the same life cycle — take a
// worker pool, dispatch lanes, contain user-code panics, then either
// commit or squash and fall back sequentially — and the same accounting
// of it in Stats, the observer's counters and the trace. runEnv and the
// helpers below are that life cycle's one copy; runSpeculative (aux) and
// runReservations keep only their own algorithms.

import (
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sched"
)

// runEnv is the per-run environment both protocols' recycled run states
// embed: the run's Stats, observer, controlled scheduler (with the
// coordinator's lane) and worker pool with its metrics baseline.
type runEnv struct {
	st        *Stats
	o         *obs.Observer
	ctl       sched.Controller
	coordLane int

	p        *pool.Pool
	ownPool  bool
	poolBase pool.Metrics
}

// bind points the environment at one run.
func (e *runEnv) bind(st *Stats, opts *Options) {
	e.st, e.o, e.ctl, e.coordLane = st, opts.Obs, opts.Sched, opts.SchedLane
}

// openPool takes the run's worker pool and the baseline for its scheduler
// deltas. Without a shared Options.Pool the run builds a private one:
// Options.Workers wide, worker PRNGs seeded from Options.Seed, reporting
// to this run's observer and explorable under its controller. A shared
// pool's observer and controller belong to whoever built it and are left
// untouched.
func (e *runEnv) openPool(opts *Options) {
	e.p, e.ownPool = opts.Pool, opts.Pool == nil
	if e.ownPool {
		e.p = pool.NewSeeded(max(opts.Workers, 1), opts.Seed)
		if e.ctl != nil {
			e.p.SetController(e.ctl)
		}
		e.p.SetObserver(e.o)
	}
	e.poolBase = e.p.Metrics()
}

// closePool closes a private pool. Close waits for the workers, and a
// worker may be parked at one of its decision points, so the coordinator
// releases its schedule token around it or neither side could advance.
func (e *runEnv) closePool() {
	if e.ownPool {
		e.block()
		e.p.Close()
		e.unblock()
	}
}

// captureScheduler fills the run's scheduler counters as deltas against
// the baseline openPool took.
func (e *runEnv) captureScheduler() {
	m := e.p.Metrics()
	e.st.Steals = m.Steals - e.poolBase.Steals
	e.st.LocalHits = m.LocalHits - e.poolBase.LocalHits
	e.st.QueueDepthPeak = m.QueueDepthPeak
}

// block steps the coordinator out of the schedule before it blocks for
// real; unblock re-enters it afterwards.
func (e *runEnv) block() {
	if e.ctl != nil {
		e.ctl.Block(e.coordLane)
	}
}

func (e *runEnv) unblock() {
	if e.ctl != nil {
		e.ctl.Unblock(e.coordLane)
	}
}

// yield parks the coordinator at decision point pt (uncontrolled: no-op).
func (e *runEnv) yield(pt sched.Point) {
	if e.ctl != nil {
		e.ctl.Yield(pt, e.coordLane)
	}
}

// wait blocks the coordinator on wg outside the schedule.
func (e *runEnv) wait(wg *sync.WaitGroup) {
	e.block()
	wg.Wait()
	e.unblock()
}

// dispatch fans tasks out in one batch operation and, when barrier is
// non-nil, waits on it. A closed pool leaves a suffix unqueued, which runs
// inline on the coordinator. Submission, inline runs (which yield on the
// tasks' own lanes) and the barrier can all block for real, so the
// coordinator is out of the schedule for the whole span.
func (e *runEnv) dispatch(tasks []pool.Task, barrier *sync.WaitGroup) {
	e.block()
	if nq, err := e.p.SubmitBatch(tasks); err != nil {
		for _, task := range tasks[nq:] {
			task()
		}
	}
	if barrier != nil {
		barrier.Wait()
	}
	e.unblock()
}

// contain runs f with panic containment: a panic in f comes back as a
// *PanicError carrying the original value and the stack captured during
// the unwind (so the panic origin's frames are in it); nil when f
// returned normally.
func contain(f func()) (pe *PanicError) {
	defer func() {
		if rec := recover(); rec != nil {
			pe = &PanicError{Value: rec, Stack: debug.Stack()}
		}
	}()
	f()
	return nil
}

// deadlineExpired reports whether a lane deadline of timeout, started at
// started, has passed, with the elapsed nanoseconds when it has. Under a
// controller the expiry is a schedulable choice on lane instead
// (sched.PointTimeoutCheck): parked wall-clock time would otherwise count
// against the lane.
func deadlineExpired(ctl sched.Controller, lane int, started time.Time, timeout time.Duration) (bool, int64) {
	if ctl != nil {
		return ctl.Choose(sched.PointTimeoutCheck, lane, 2) == 1, 0
	}
	if elapsed := time.Since(started); elapsed > timeout {
		return true, elapsed.Nanoseconds()
	}
	return false, 0
}

// fileLaneCPU files group j's resolved lane-time attribution into Stats
// and, when observing, the wasted-work counters and per-group events.
func (e *runEnv) fileLaneCPU(j int, committedNS, wastedNS int64) {
	if committedNS > 0 {
		e.st.LaneCPUCommittedNS += committedNS
		if e.o != nil {
			e.o.LaneCPUCommitted.Add(committedNS)
			e.o.Tracer.Emit(obs.LaneCoord, obs.EvLaneCPUCommitted, int32(j), committedNS)
		}
	}
	if wastedNS > 0 {
		e.st.LaneCPUWastedNS += wastedNS
		if e.o != nil {
			e.o.LaneCPUWasted.Add(wastedNS)
			e.o.Tracer.Emit(obs.LaneCoord, obs.EvLaneCPUWasted, int32(j), wastedNS)
		}
	}
}

// recordFailure counts why group j's results are unusable: a contained
// panic (EvPanic carries the group's affected input count) or an expired
// deadline (EvGroupTimeout carries the elapsed nanoseconds). A footprint
// violation was already counted, per slot, where the oracle caught it.
func (e *runEnv) recordFailure(f groupFailure, j, inputs int, elapsedNS int64) {
	switch f {
	case failPanic:
		e.st.PanickedGroups++
		if e.o != nil {
			e.o.PanickedGroups.Inc()
			e.o.Tracer.Emit(obs.LaneCoord, obs.EvPanic, int32(j), int64(inputs))
		}
	case failTimeout:
		e.st.TimedOutGroups++
		if e.o != nil {
			e.o.GroupTimeouts.Inc()
			e.o.Tracer.Emit(obs.LaneCoord, obs.EvGroupTimeout, int32(j), elapsedNS)
		}
	}
}

// recordAbort counts speculation aborting at group j after spending redos
// re-executions on the boundary.
func (e *runEnv) recordAbort(j, redos int) {
	e.st.Aborts++
	if e.o != nil {
		e.o.Aborts.Inc()
		e.o.Tracer.Emit(obs.LaneCoord, obs.EvAbort, int32(j), int64(redos))
	}
}

// recordSquash traces group j's squashed inputs.
func (e *runEnv) recordSquash(j, inputs int) {
	if e.o != nil {
		e.o.Squashes.Inc()
		e.o.Tracer.Emit(obs.LaneCoord, obs.EvSquash, int32(j), int64(inputs))
	}
}

// enterFallback counts the run's squashed inputs and the inputs group j's
// abort sends to the sequential fallback, then yields at the fallback's
// decision point.
func (e *runEnv) enterFallback(j, squashed, fallback int) {
	e.st.SquashedInputs = squashed
	e.st.FallbackInputs = fallback
	if e.o != nil {
		e.o.FallbackInputs.Add(int64(fallback))
		e.o.Tracer.Emit(obs.LaneCoord, obs.EvFallback, int32(j), int64(fallback))
	}
	e.yield(sched.PointFallback)
}
