// Deterministic-reservations protocol: the engine's second speculation
// mode (ROADMAP "Second speculation protocol"), adapted from parlaylib's
// speculative_for ("Internally deterministic parallel algorithms can be
// fast"). Where the aux protocol guesses a group's start state and
// validates it after the fact, reservations never guess: each group's
// pending inputs run rounds of
//
//	reserve — every pending input write-mins its index into the state
//	          slots its footprint touches;
//	check   — an input still holding the minimum on all its slots wins
//	          and runs the compute from the round's snapshot;
//	commit  — the coordinator merges the winners' states in ascending
//	          input order and retires their outputs; losers carry
//	          forward into the next round.
//
// The lowest pending index always wins every slot it reserves, so each
// round commits at least one input and the protocol terminates with no
// aux code, no validation and no redo: sequential order is preserved by
// construction. Every input's random stream is pre-split on the
// coordinator in input order and attempts receive value copies, so the
// outputs are byte-identical to the sequential baseline — including under
// contained panics, deadlines and breaker denials — as long as the
// footprint contract holds (see ReserveOps).
package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/sched"
)

// Protocol selects the engine's speculation protocol.
type Protocol int

const (
	// ProtocolAux is the paper's §3.1 aux-state speculation: speculative
	// start states from auxiliary code, validated at group boundaries.
	ProtocolAux Protocol = iota
	// ProtocolReservations is the deterministic reserve/check/commit
	// protocol: priority-ordered slot reservations, lower-indexed inputs
	// win conflicts, losers carry forward.
	ProtocolReservations
)

// String returns the protocol's stable name.
func (p Protocol) String() string {
	switch p {
	case ProtocolAux:
		return "aux"
	case ProtocolReservations:
		return "reservations"
	}
	return fmt.Sprintf("protocol(%d)", int(p))
}

// ParseProtocol inverts String.
func ParseProtocol(s string) (Protocol, bool) {
	switch s {
	case "aux":
		return ProtocolAux, true
	case "reservations":
		return ProtocolReservations, true
	}
	return ProtocolAux, false
}

// ReserveOps decomposes a dependence's state into integer slots for the
// reservations protocol. The developer contract mirrors MatchAny's role in
// the aux protocol: Footprint must cover every slot the input's compute
// reads or writes (reads included — a read of a slot a lower-indexed input
// will write is a conflict), and computes with disjoint footprints must
// commute, because the protocol merges winners' states out of sequential
// order. Under that contract the run's outputs are byte-identical to the
// sequential baseline.
//
// A Dependence without ReserveOps still supports ProtocolReservations via
// a built-in whole-state single slot: every pending input conflicts, one
// input commits per round, and parallelism degenerates to ordered rounds —
// the honest result for states that cannot be decomposed.
type ReserveOps[I, S any] struct {
	// NumSlots returns the number of state slots, evaluated once per run
	// on a clone of the initial state. Footprint results must stay in
	// [0, NumSlots).
	NumSlots func(initial S) int
	// Footprint returns the slots the input's compute touches given the
	// state snapshot it would run from. It must be deterministic in
	// (in, s) and must not mutate s.
	Footprint func(in I, s S) []int
	// Merge copies the given slots of src into dst and returns the
	// merged state. dst is a private clone; src is a winner's returned
	// state; only the winner's footprint slots may be taken from it.
	Merge func(dst, src S, slots []int) S
	// Touched is the optional hook behind the Options.FootprintCheck
	// oracle: given the state a compute started from and the state it
	// returned, it reports the slots whose contents differ. When set and
	// the oracle is enabled, every winner's touched slots are
	// cross-checked against its declared Footprint before commit; a slot
	// touched but not declared squashes the group and falls back
	// sequentially. Writes that happen to store the old value back are
	// invisible to a state diff, so Touched is a sanitizer, not a proof.
	Touched func(before, after S) []int
}

// WithReserve attaches reservation ops to the dependence, enabling
// slot-level parallelism under ProtocolReservations. NumSlots, Footprint
// and Merge are required (Touched is optional); it returns d for chaining.
func (d *Dependence[I, S, O]) WithReserve(ops ReserveOps[I, S]) *Dependence[I, S, O] {
	if ops.NumSlots == nil || ops.Footprint == nil || ops.Merge == nil {
		panic("core: WithReserve needs NumSlots, Footprint and Merge")
	}
	d.reserve = &ops
	return d
}

// ReservationArg packs a reservation event's round (0-based within its
// group) and input index into one trace argument: round<<32 | input.
func ReservationArg(round, input int) int64 {
	return int64(round)<<32 | int64(uint32(input))
}

// SplitReservationArg inverts ReservationArg.
func SplitReservationArg(arg int64) (round, input int) {
	return int(arg >> 32), int(uint32(arg))
}

// resvRun is the per-run state of one reservations execution. Runs
// recycle it through the dependence's resvScratch pool: every slice keeps
// its capacity between runs (state-holding elements cleared on release),
// and the wave tasks with their closures are created once per chunk slot.
// Only the outputs slice is allocated fresh — it is returned to the
// caller.
type resvRun[I, S, O any] struct {
	runEnv
	d      *Dependence[I, S, O]
	inputs []I
	// srcs are the pre-split per-input random sources (by value: every
	// attempt copies, so squashed attempts never consume the stream).
	srcs []rng.Source
	opts Options
	// lanes is the wave width; wave chunk c yields on coordLane+1+c.
	lanes int
	emit  Emit[O]

	// table is the reservation table, one write-min cell per state slot,
	// reset to the sentinel len(inputs) before each reserve wave.
	table []atomic.Int64
	// failed holds the run's groupFailure (failNone while healthy):
	// lanes CAS failPanic on contained panics, the coordinator stores
	// failTimeout on an expired deadline.
	failed  atomic.Int32
	failArg int64

	invocations atomic.Int64
	// fpViolations counts slots the FootprintCheck oracle caught being
	// touched outside a declared footprint.
	fpViolations atomic.Int64
	// committed counts inputs committed by the protocol (not fallback).
	committed int
	shared    S
	outs      []O

	// panicMu guards panics, the contained user-code panic records
	// (value+stack) the run surfaces through Stats.Panics; lanes can
	// fail concurrently, the coordinator drains after the wave barrier.
	panicMu sync.Mutex
	panics  []*PanicError

	// Per-group round state, recycled across groups and runs: pending
	// input indexes, per-input footprints, winners' returned states,
	// win flags, and the per-input lane nanoseconds of the round in
	// flight.
	pending   []int
	fps       [][]int
	states    []S
	won       []bool
	reserveNS []int64
	computeNS []int64

	// Wave dispatch state: waveTasks[c] is the recycled pool task for
	// chunk c (created once per slot), waveBody the current wave's
	// per-input body, wavePending the pending set it fans over, wavePer
	// the chunk width, and wavePoint the schedule point lanes yield at.
	// reserveBody and checkBody are the two bodies, bound once.
	waveTasks   []pool.Task
	waveBody    func(lane, i int)
	wavePending []int
	wavePer     int
	wavePoint   sched.Point
	waveWG      sync.WaitGroup
	reserveBody func(lane, i int)
	checkBody   func(lane, i int)

	// Current group context read by the bound bodies: group index, group
	// start input, and the 0-based round.
	gj, gstart, ground int
}

// getResvRun fetches (or builds) a recycled reservations run state.
func (d *Dependence[I, S, O]) getResvRun() *resvRun[I, S, O] {
	if v := d.resvScratch.Get(); v != nil {
		return v.(*resvRun[I, S, O])
	}
	r := &resvRun[I, S, O]{d: d}
	r.reserveBody = r.reserveOne
	r.checkBody = r.checkOne
	return r
}

// release clears every state-holding reference (the outputs slice is the
// caller's now and is simply forgotten) and parks the run state for
// reuse.
func (r *resvRun[I, S, O]) release() {
	var zeroS S
	r.runEnv = runEnv{}
	r.inputs = nil
	r.opts = Options{}
	r.emit = nil
	r.shared = zeroS
	r.outs = nil
	clear(r.fps[:cap(r.fps)])
	clear(r.states[:cap(r.states)])
	clear(r.panics[:cap(r.panics)])
	r.panics = r.panics[:0]
	r.waveBody = nil
	r.wavePending = nil
	r.d.resvScratch.Put(r)
}

// containPanic records one contained user-code panic's value and stack.
func (r *resvRun[I, S, O]) containPanic(pe *PanicError) {
	r.panicMu.Lock()
	r.panics = append(r.panics, pe)
	r.panicMu.Unlock()
}

// drainPanics moves the run's contained panic records into Stats.Panics.
// Called after wave barriers (or on the sequential coordinator), so no
// lane is still appending.
func (r *resvRun[I, S, O]) drainPanics() {
	if len(r.panics) == 0 {
		return
	}
	r.st.Panics = append(r.st.Panics, r.panics...)
	clear(r.panics)
	r.panics = r.panics[:0]
}

// runReservations executes the deterministic-reservations protocol. It is
// the ProtocolReservations counterpart of runSpeculative, reached from
// runAll with speculation admitted (UseAux set, g < len(inputs), breaker
// allowing).
func (d *Dependence[I, S, O]) runReservations(root *rng.Source, inputs []I, initial S, g int, opts Options, st *Stats, emit Emit[O]) ([]O, S, Stats) {
	n := len(inputs)
	numGroups := (n + g - 1) / g
	st.Groups = numGroups

	r := d.getResvRun()
	defer r.release()
	if cap(r.srcs) < n {
		r.srcs = make([]rng.Source, n)
	}
	r.srcs = r.srcs[:n]
	for i := range r.srcs {
		root.SplitInto(&r.srcs[i])
	}

	r.bind(st, &opts)
	r.inputs, r.opts, r.emit = inputs, opts, emit
	r.shared = d.ops.Clone(initial)
	r.outs = make([]O, n) // returned to the caller, never recycled
	r.failed.Store(int32(failNone))
	r.failArg = 0
	r.invocations.Store(0)
	r.fpViolations.Store(0)
	r.committed = 0
	r.lanes = max(opts.Workers, 1)

	slots := 1
	if d.reserve != nil {
		ns := 0
		if pe := contain(func() { ns = d.reserve.NumSlots(r.shared) }); pe != nil {
			// NumSlots panicked: contained, but no parallel protocol is
			// possible — no group ever starts and the whole vector runs
			// sequentially.
			r.containPanic(pe)
			r.recordFailure(failPanic, 0, 0, 0)
			r.recordAbort(0, 0)
			r.enterFallback(0, 0, n)
			r.fallback(0, nil, 0, 0)
			return r.outs, r.shared, *st
		}
		slots = max(slots, ns)
	}
	if cap(r.table) < slots {
		r.table = make([]atomic.Int64, slots)
	}
	r.table = r.table[:slots]

	r.openPool(&opts)
	defer r.closePool()
	return r.run(numGroups, g)
}

// run processes the groups in order; a group failure squashes the
// remaining inputs into the sequential fallback (§3.1: no further
// speculation for the current input vector).
func (r *resvRun[I, S, O]) run(numGroups, g int) ([]O, S, Stats) {
	n := len(r.inputs)
	for j := 0; j < numGroups; j++ {
		start, end := j*g, min(n, (j+1)*g)
		ok, pending := r.runGroup(j, start, end)
		if !ok {
			r.abort(j, numGroups, g, start, end, pending)
			break
		}
	}
	r.st.Invocations += r.invocations.Load()
	r.st.UsefulInvocations += int64(r.committed)
	r.st.FootprintViolations += int(r.fpViolations.Load())
	r.captureScheduler()
	return r.outs, r.shared, *r.st
}

// runGroup runs one group's reserve/check/commit rounds to completion,
// reporting success and — on failure — the inputs still pending.
func (r *resvRun[I, S, O]) runGroup(j, start, end int) (bool, []int) {
	width := end - start
	// The group context the bound wave bodies read, and the recycled
	// round buffers: footprints (input i's at fps[i-start]), winners'
	// returned states, win flags, and per-input lane nanoseconds for the
	// round in flight — the latter written by the owning lane inside a
	// wave and read by the coordinator after the wave's barrier, zeroed
	// once attributed so a failure sweep only picks up work no
	// commitRound has filed yet.
	r.gj, r.gstart = j, start
	pending := r.pending[:0]
	for i := start; i < end; i++ {
		pending = append(pending, i)
	}
	r.pending = pending
	r.fps = cleared(r.fps, width)
	r.states = cleared(r.states, width)
	r.won = cleared(r.won, width)
	r.reserveNS = cleared(r.reserveNS, width)
	r.computeNS = cleared(r.computeNS, width)
	fps, states, won := r.fps, r.states, r.won
	reserveNS, computeNS := r.reserveNS, r.computeNS
	var gCommitNS, gWasteNS int64

	if r.o != nil {
		r.o.GroupsStarted.Inc()
		r.o.Tracer.Emit(j, obs.EvGroupStart, int32(j), int64(start))
	}
	timeout := r.opts.GroupTimeout
	var groupStart time.Time
	if timeout > 0 && r.ctl == nil {
		groupStart = time.Now()
	}

	rounds := 0
	for len(pending) > 0 {
		// The deadline is checked once per round on the coordinator.
		if timeout > 0 {
			if expired, elapsedNS := deadlineExpired(r.ctl, r.coordLane, groupStart, timeout); expired {
				r.failed.Store(int32(failTimeout))
				r.failArg = elapsedNS
				break
			}
		}
		round := rounds
		rounds++
		r.st.Rounds++
		r.ground = round

		// Reserve: every pending input write-mins its index into its
		// footprint's cells. The committed state is immutable for the
		// whole round, so parallel reads of it are race-free.
		for s := range r.table {
			r.table[s].Store(int64(len(r.inputs)))
		}
		r.wave(sched.PointReserve, pending, r.reserveBody)
		if r.failed.Load() != int32(failNone) {
			break
		}

		// Check + compute: an input holding the minimum on all its slots
		// wins and runs its compute from a private clone of the round's
		// snapshot; losers carry forward.
		r.wave(sched.PointReserveCheck, pending, r.checkBody)
		if r.failed.Load() != int32(failNone) {
			break
		}

		// Commit on the coordinator, in ascending input order.
		r.yield(sched.PointCommit)
		if !r.commitRound(j, round, start, pending, fps, states, won) {
			break
		}
		// Attribute the round's lane time: winners' reserve+compute was
		// committed, losers' was the protocol's wasted work. Zero the
		// entries once filed so the failure sweep below never double
		// counts them.
		for _, i := range pending {
			k := i - start
			spent := reserveNS[k] + computeNS[k]
			if won[k] {
				gCommitNS += spent
			} else {
				gWasteNS += spent
			}
			reserveNS[k], computeNS[k] = 0, 0
		}
		next := pending[:0]
		for _, i := range pending {
			if !won[i-start] {
				next = append(next, i)
			}
		}
		pending = next
	}

	if r.failed.Load() != int32(failNone) {
		// A broken round commits nothing: every lane nanosecond it
		// recorded is wasted work.
		for k := 0; k < width; k++ {
			gWasteNS += reserveNS[k] + computeNS[k]
		}
	}
	r.fileLaneCPU(j, gCommitNS, gWasteNS)
	if r.o != nil {
		r.o.RoundsPerGroup.Observe(int64(rounds))
		r.o.GroupsFinished.Inc()
		r.o.Tracer.Emit(j, obs.EvGroupFinish, int32(j), int64(width-len(pending)))
	}
	if r.failed.Load() != int32(failNone) {
		return false, pending
	}
	// Group complete: its outputs are final; stream them in input order
	// (commits happened out of order, so emission buffers per group).
	if r.emit != nil {
		for i := start; i < end; i++ {
			r.emit(i, r.outs[i])
		}
	}
	return true, nil
}

// reserveOne is the reserve wave's per-input body (bound once per
// resvRun): evaluate the input's footprint against the committed state
// and write-min its index into the footprint's table cells.
func (r *resvRun[I, S, O]) reserveOne(lane, i int) {
	laneStart := time.Now()
	fp := r.footprintOf(i)
	r.fps[i-r.gstart] = fp
	for _, sl := range fp {
		for {
			cur := r.table[sl].Load()
			if cur <= int64(i) || r.table[sl].CompareAndSwap(cur, int64(i)) {
				break
			}
		}
	}
	if r.o != nil {
		r.o.Reserves.Inc()
		r.o.Tracer.Emit(lane, obs.EvReserve, int32(r.gj), ReservationArg(r.ground, i))
	}
	r.reserveNS[i-r.gstart] = time.Since(laneStart).Nanoseconds()
}

// checkOne is the check+compute wave's per-input body (bound once per
// resvRun): an input holding the minimum on all its slots wins and runs
// its compute from a private clone of the round's snapshot; losers carry
// forward into the next round.
func (r *resvRun[I, S, O]) checkOne(lane, i int) {
	k := i - r.gstart
	laneStart := time.Now()
	defer func() {
		r.computeNS[k] = time.Since(laneStart).Nanoseconds()
	}()
	r.won[k] = true
	for _, sl := range r.fps[k] {
		if r.table[sl].Load() != int64(i) {
			r.won[k] = false
			break
		}
	}
	if !r.won[k] {
		if r.o != nil {
			r.o.ReserveConflicts.Inc()
			r.o.Tracer.Emit(lane, obs.EvReserveLost, int32(r.gj), ReservationArg(r.ground, i))
		}
		return
	}
	snap := r.d.ops.Clone(r.shared)
	// The oracle needs its own pristine clone: compute may mutate
	// snap in place, so snap cannot serve as the "before" state.
	oracle := r.opts.FootprintCheck && r.d.reserve != nil && r.d.reserve.Touched != nil
	var before S
	if oracle {
		before = r.d.ops.Clone(r.shared)
	}
	src := r.srcs[i]
	out, next := r.d.compute(&src, r.inputs[i], snap)
	r.invocations.Add(1)
	r.outs[i] = out
	r.states[k] = next
	if oracle {
		declared := make(map[int]bool, len(r.fps[k]))
		for _, sl := range r.fps[k] {
			declared[sl] = true
		}
		for _, sl := range r.d.reserve.Touched(before, next) {
			if declared[sl] {
				continue
			}
			// A lying footprint: the winner touched a slot it never
			// reserved, so this round's winner set is not conflict-
			// free. Nothing from the round commits (the group breaks
			// before commitRound) and the pending inputs re-run
			// sequentially from the committed state.
			r.fpViolations.Add(1)
			if r.o != nil {
				r.o.FootprintViolations.Inc()
				r.o.Tracer.Emit(lane, obs.EvFootprintViolation, int32(r.gj), int64(sl))
			}
			r.failed.CompareAndSwap(int32(failNone), int32(failFootprint))
		}
	}
}

// commitRound merges the round's winners into the committed state in
// ascending input order and retires their outputs. A Merge panic is
// contained: the state under merge is a private clone, so the committed
// state is intact for the fallback and commitRound reports failure with
// nothing retired.
func (r *resvRun[I, S, O]) commitRound(j, round, start int, pending []int, fps [][]int, states []S, won []bool) bool {
	if r.d.reserve == nil {
		// Whole-state single slot: exactly one winner (the lowest pending
		// index); adopt its returned state wholesale.
		for _, i := range pending {
			if won[i-start] {
				r.shared = states[i-start]
				break
			}
		}
	} else {
		next := r.d.ops.Clone(r.shared)
		for _, i := range pending {
			if !won[i-start] {
				continue
			}
			if pe := contain(func() { next = r.d.reserve.Merge(next, states[i-start], fps[i-start]) }); pe != nil {
				r.containPanic(pe)
				r.failed.CompareAndSwap(int32(failNone), int32(failPanic))
				return false
			}
		}
		r.shared = next
	}

	head := pending[0]
	winners := 0
	for _, i := range pending {
		if !won[i-start] {
			continue
		}
		winners++
		r.committed++
		if i != head {
			// This input committed in the same round as a lower-indexed
			// pending one: it genuinely ran ahead of sequential order.
			r.st.SpeculativeCommits++
			if r.o != nil {
				r.o.SpecCommittedInputs.Inc()
			}
		}
		if r.o != nil {
			r.o.Commits.Inc()
			r.o.Tracer.Emit(obs.LaneCoord, obs.EvCommit, int32(j), ReservationArg(round, i))
		}
	}
	r.st.ReservationConflicts += len(pending) - winners
	if winners == 0 {
		// The lowest pending index wins every slot it reserves; an empty
		// round is an engine bug, not a user-code failure.
		panic("core: reservation round committed nothing")
	}
	return true
}

// footprintOf evaluates the input's footprint against the committed
// state. Out-of-range slots are a contract violation surfaced as a panic,
// which the wave contains like any user-code panic (the group falls back
// sequentially, outputs intact).
func (r *resvRun[I, S, O]) footprintOf(i int) []int {
	if r.d.reserve == nil {
		return wholeStateFootprint
	}
	fp := r.d.reserve.Footprint(r.inputs[i], r.shared)
	for _, sl := range fp {
		if sl < 0 || sl >= len(r.table) {
			panic(fmt.Sprintf("core: footprint slot %d outside [0,%d)", sl, len(r.table)))
		}
	}
	return fp
}

// wholeStateFootprint is the built-in single-slot footprint used when the
// dependence has no ReserveOps: every input conflicts on slot 0.
var wholeStateFootprint = []int{0}

// wave fans body over the pending inputs and waits for it: at most
// r.lanes contiguous chunks, one pool task each, yielding at point on the
// chunk's lane before every input. A body panic is contained (failPanic,
// value and stack recorded); once the run is failed, remaining work bails
// at its next yield. The chunk tasks are recycled slots created once per
// chunk index and reused across waves, groups and runs; the wave's
// parameters travel through the wave* fields, published to the workers by
// SubmitBatch and fenced from the next wave by the waveWG barrier.
func (r *resvRun[I, S, O]) wave(point sched.Point, pending []int, body func(lane, i int)) {
	chunks := min(r.lanes, len(pending))
	per := (len(pending) + chunks - 1) / chunks
	nTasks := (len(pending) + per - 1) / per
	for c := len(r.waveTasks); c < nTasks; c++ {
		c := c
		r.waveTasks = append(r.waveTasks, func() { r.waveTask(c) })
	}
	r.wavePoint, r.waveBody = point, body
	r.wavePending, r.wavePer = pending, per
	r.waveWG.Add(nTasks)
	r.dispatch(r.waveTasks[:nTasks], &r.waveWG)
}

// waveTask runs chunk c of the wave in flight: the contiguous slice of
// wavePending at [c*wavePer, (c+1)*wavePer), on schedule lane
// coordLane+1+c.
func (r *resvRun[I, S, O]) waveTask(c int) {
	defer r.waveWG.Done()
	lane := r.coordLane + 1 + c
	if r.ctl != nil {
		defer r.ctl.Done(lane)
	}
	lo := c * r.wavePer
	hi := min(lo+r.wavePer, len(r.wavePending))
	if pe := contain(func() {
		for _, i := range r.wavePending[lo:hi] {
			if r.ctl != nil {
				r.ctl.Yield(r.wavePoint, lane)
			}
			if r.failed.Load() != int32(failNone) {
				return
			}
			r.waveBody(lane, i)
		}
	}); pe != nil {
		r.containPanic(pe)
		r.failed.CompareAndSwap(int32(failNone), int32(failPanic))
	}
}

// abort handles a group failure: classify it, squash the uncommitted
// inputs, and reprocess them sequentially.
func (r *resvRun[I, S, O]) abort(j, numGroups, g, start, end int, pending []int) {
	n := len(r.inputs)
	r.recordFailure(groupFailure(r.failed.Load()), j, len(pending), r.failArg)
	r.recordAbort(j, 0)
	r.recordSquash(j, len(pending))
	for k := j + 1; k < numGroups; k++ {
		r.recordSquash(k, min(n, (k+1)*g)-k*g)
	}
	remaining := len(pending) + (n - end)
	r.enterFallback(j, remaining, remaining)
	r.fallback(j, pending, start, end)
}

// fallback reprocesses the squashed inputs in ascending order from the
// committed state — each with its pre-assigned random source, so the
// outputs stay byte-identical to the sequential baseline: first the
// failed group's pending inputs, then the whole group [start, end)
// streams in input order (its committed outputs were never emitted),
// then the tail runs and streams sequentially. The fallback produced
// committed outputs; its time is filed against group j, whose squashed
// work it redid.
func (r *resvRun[I, S, O]) fallback(j int, pending []int, start, end int) {
	fbStart := time.Now()
	for _, i := range pending {
		r.seqOne(i)
	}
	if r.emit != nil {
		for i := start; i < end; i++ {
			r.emit(i, r.outs[i])
		}
	}
	for i := end; i < len(r.inputs); i++ {
		r.seqOne(i)
		if r.emit != nil {
			r.emit(i, r.outs[i])
		}
	}
	r.fileLaneCPU(j, time.Since(fbStart).Nanoseconds(), 0)
	r.drainPanics()
}

// seqOne processes one input sequentially from the committed state with
// its pre-assigned source. Unlike the aux protocol's fallback, a panic
// here gets one contained retry: the first attempt runs on a clone with a
// value copy of the source, so a panicked attempt leaves the committed
// state and the input's stream untouched, and transient faults (at most
// one per input, the chaos contract) replay deterministically. A second
// panic is a deterministic application bug and propagates. The first
// attempt runs on the coordinator, so its panic record goes straight into
// the run's collection (drained by fallback).
func (r *resvRun[I, S, O]) seqOne(i int) {
	var out O
	var next S
	pe := contain(func() {
		src := r.srcs[i]
		out, next = r.d.compute(&src, r.inputs[i], r.d.ops.Clone(r.shared))
	})
	r.st.Invocations++
	if pe != nil {
		r.containPanic(pe)
		src := r.srcs[i]
		out, next = r.d.compute(&src, r.inputs[i], r.shared)
		r.st.Invocations++
	}
	r.shared = next
	r.outs[i] = out
	r.st.UsefulInvocations++
}
