// Package core implements the paper's primary contribution: the STATS
// execution model of §3.1, which satisfies state dependences with
// compiler-generated auxiliary code and validates the speculation at run
// time.
//
// A state dependence is the code pattern of Figure 4: invocation i computes
// an output from an input while reading and updating a state S, so
// invocation i+1 depends on invocation i's state write, serializing the
// chain. The engine breaks the chain by grouping inputs into ordered blocks
// and overlapping the blocks' computations; each block after the first
// starts from a speculative state produced by auxiliary code from only a few
// recent inputs. When the preceding block finishes, its final state is
// compared with the speculative state (the developer's
// doesSpecStateMatchAny); on mismatch the preceding block may re-execute its
// last few inputs — fresh nondeterminism can produce a different, matching
// final state — up to a budget. If the budget is exhausted, all subsequent
// blocks are aborted and squashed, execution resumes sequentially from the
// first original final state, and no further speculation is performed for
// the current input vector.
package core

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/rng"
	"repro/internal/sched"
)

// Compute is the target of a state dependence (computeOutput in Figure 8):
// given an input and the current state, it produces an output and the next
// state. It must not retain s. The rng.Source carries the invocation's
// nondeterminism; re-executions receive fresh sources, which is what gives
// the runtime multiple original states to match against.
type Compute[I, S, O any] func(r *rng.Source, in I, s S) (O, S)

// Aux is auxiliary code for a state dependence: an alternative producer that
// builds a speculative state from the initial state and the window of inputs
// immediately preceding the block it feeds. A nil Aux means the dependence
// has no auxiliary code and must be satisfied conventionally.
type Aux[I, S any] func(r *rng.Source, init S, recent []I) S

// StateOps supplies the developer-provided state methods of the SDI
// (Figure 9): Clone corresponds to operator= (state privatization), and
// MatchAny to doesSpecStateMatchAny (speculative-state acceptance against a
// set of original states).
//
// MatchAny must not retain the originals slice: the engine recycles its
// backing storage across boundaries and runs.
type StateOps[S any] struct {
	Clone    func(S) S
	MatchAny func(spec S, originals []S) bool
}

// Options configures one run of the engine. All values correspond to state
// space dimensions (§3.3) chosen by the autotuner.
type Options struct {
	// UseAux enables speculation. When false the dependence is satisfied
	// conventionally (the paper's baseline) under either protocol.
	UseAux bool
	// Protocol selects how the run parallelizes the input chain:
	// ProtocolAux (the zero value) is the paper's aux-state speculation;
	// ProtocolReservations is the deterministic reserve/check/commit
	// protocol of reservations.go, which needs no auxiliary code and no
	// validation — sequential order is preserved by construction.
	Protocol Protocol
	// GroupSize is the input-group cardinality G. Values below 1 are
	// treated as 1.
	GroupSize int
	// Window is the number of previous inputs the auxiliary code
	// consumes (k). Negative values are treated as 0.
	Window int
	// RedoMax is the number of times the original producer may
	// re-execute per validation (R). Negative values are treated as 0.
	RedoMax int
	// Rollback is how many inputs a re-execution goes back (W), clamped
	// to [1, group length].
	Rollback int
	// Workers is the number of pool workers used for group-level TLP.
	Workers int
	// Seed determines every random stream of the run. Runs with equal
	// seeds and options are reproducible; distinct seeds model the
	// program's nondeterminism.
	Seed uint64
	// Pool, when non-nil, supplies the shared worker pool; otherwise the
	// engine creates a private pool of Options.Workers width for the run.
	Pool *pool.Pool
	// Obs, when non-nil, receives the run's speculation event log and
	// metrics: the engine emits a trace event and updates the registry
	// at every speculation decision point (group start/finish, auxiliary
	// state production, validation match/mismatch, redo, abort, squash,
	// fallback). A nil Obs costs one branch per decision point.
	Obs *obs.Observer
	// GroupTimeout bounds one speculative group execution's wall-clock
	// time. A lane exceeding it is squashed exactly like a validation
	// mismatch: the group and its successors abort and the inputs are
	// reprocessed sequentially. Zero disables the deadline. Group 0 is
	// exempt — its outputs are committed unconditionally, so squashing
	// it would gain nothing.
	GroupTimeout time.Duration
	// Breaker, when non-nil, gates speculation: a run asks Allow before
	// speculating (a refusal executes conventionally and is counted in
	// Stats.BreakerDenied) and Records its abort/panic/timeout outcome
	// afterwards.
	Breaker *Breaker
	// Sched, when non-nil, is the controlled scheduler (internal/sched):
	// the engine yields at every nondeterministic decision point — aux
	// production, group start/step/finish, validation, redo, squash,
	// fallback entry, breaker admission/recording — so adversarial
	// interleavings can be explored and recorded schedules replayed. A
	// nil Sched costs one branch per decision point (the Options.Obs
	// discipline). Under a controller a positive GroupTimeout stops
	// consulting the real clock (parked time would count) and instead
	// asks the controller each step whether the deadline expired
	// (sched.PointTimeoutCheck), making timeout races schedulable.
	Sched sched.Controller
	// SchedLane is the run's base lane in the controller's namespace:
	// the coordinator yields on SchedLane and group j on SchedLane+1+j.
	// Concurrent runs sharing one controller must use disjoint bases
	// (pool workers use negative lanes, so any non-negative spacing of
	// 1+maxGroups works).
	SchedLane int
	// FootprintCheck enables the dynamic footprint oracle under
	// ProtocolReservations: when the dependence's ReserveOps provides a
	// Touched hook, every winner's actually-touched slots are
	// cross-checked against its declared Footprint before commit. A
	// violation squashes the group (like a contained panic), falls back
	// to sequential re-execution, and counts in
	// Stats.FootprintViolations — the sanitizer catching what static
	// ⊤-widening lets through. Debug mode: it pays one extra state
	// clone per invocation.
	FootprintCheck bool
}

// Stats reports what the runtime did during a run. The profiler and the
// evaluation harness consume these to account overhead, abort rates, and
// wasted work.
type Stats struct {
	Inputs  int // inputs processed
	Groups  int // groups formed (1 means sequential)
	Matches int // speculative states accepted
	Redos   int // original-producer re-executions performed
	// Aborts counts boundary resolutions that aborted speculation:
	// exhausted redo budgets, contained panics and group deadlines (the
	// latter two also counted in PanickedGroups/TimedOutGroups).
	Aborts int

	// SpeculativeCommits counts inputs whose outputs were committed from
	// a speculative (group > 0) execution.
	SpeculativeCommits int
	// SquashedInputs counts inputs whose speculative outputs were thrown
	// away by an abort.
	SquashedInputs int
	// FallbackInputs counts inputs re-processed sequentially after an
	// abort.
	FallbackInputs int
	// Invocations counts every Compute call, including re-executions and
	// squashed work; UsefulInvocations counts only calls whose output was
	// committed.
	Invocations       int64
	UsefulInvocations int64
	// AuxCalls counts auxiliary-code executions; AuxInputs the total
	// inputs they consumed.
	AuxCalls  int
	AuxInputs int

	// PanickedGroups counts speculative groups squashed because user
	// code panicked on their lane (compute, aux, clone, or the
	// boundary's match/redo). The panic is contained: the group's
	// inputs are reprocessed sequentially and the process survives.
	PanickedGroups int
	// Panics carries each contained speculative-path panic with the same
	// value+stack fidelity *PanicError gives the sequential path: the
	// original panic value and the stack captured during the unwind.
	// Under ProtocolAux entries are in group order; under
	// ProtocolReservations in the order the coordinator observed them.
	Panics []*PanicError
	// TimedOutGroups counts speculative groups squashed because their
	// lane exceeded Options.GroupTimeout.
	TimedOutGroups int
	// BreakerDenied is 1 when the run's speculation was suppressed by an
	// open Options.Breaker (the run executed conventionally), else 0.
	// It is an int so aggregation across runs counts denials.
	BreakerDenied int

	// Rounds counts reserve/check/commit rounds executed by the
	// deterministic-reservations protocol, summed over the run's groups
	// (0 under ProtocolAux).
	Rounds int
	// ReservationConflicts counts inputs that lost a reserved slot to a
	// lower-indexed input and carried forward into a later round.
	ReservationConflicts int
	// FootprintViolations counts state slots the FootprintCheck oracle
	// caught a compute touching outside its declared reservation
	// footprint (0 unless Options.FootprintCheck is set).
	FootprintViolations int

	// LaneCPUCommittedNS and LaneCPUWastedNS split the run's lane
	// CPU-time — wall-clock nanoseconds measured at lane boundaries
	// (aux, group execution, redo, reservation reserve/compute,
	// sequential fallback) — by whether the work's results were
	// committed or discarded. Their ratio is the paper's speculation
	// trade made visible: wasted/(wasted+committed) is the price paid
	// for the wall-clock win. Purely sequential runs report zero for
	// both (no lane boundaries are crossed).
	LaneCPUCommittedNS int64
	LaneCPUWastedNS    int64

	// Scheduler counters, deltas over this run of the worker pool's
	// sharded work-stealing dispatcher (§3.4 runtime). Steals are
	// cross-worker dispatches, LocalHits the contention-free local-deque
	// fast path. On a shared pool with concurrent runs the deltas
	// attribute pool-wide activity to each overlapping run.
	Steals    int64
	LocalHits int64
	// QueueDepthPeak is the pool's peak single-deque depth as of the end
	// of the run (a lifetime high-water mark, not a delta).
	QueueDepthPeak int64
}

// Dependence is a runnable state dependence: the compute target, its
// auxiliary code, and the state methods.
type Dependence[I, S, O any] struct {
	compute Compute[I, S, O]
	aux     Aux[I, S]
	ops     StateOps[S]
	// reserve, when non-nil, decomposes the state into slots for the
	// deterministic-reservations protocol (WithReserve); nil falls back
	// to a whole-state single slot.
	reserve *ReserveOps[I, S]

	// scratch and resvScratch recycle the per-run working sets of
	// runSpeculative and runReservations through sync.Pool, so a warm
	// Run on a reused Dependence allocates (almost) nothing. Both make
	// the Dependence non-copyable once used; the engine only ever hands
	// out pointers.
	scratch     sync.Pool
	resvScratch sync.Pool
}

// New returns a Dependence. compute and ops.Clone must be non-nil; aux and
// ops.MatchAny may be nil (no auxiliary code / by-construction acceptance,
// like the paper's swaptions, streamcluster and streamclassifier, whose
// speculative state "could have already been generated by an execution of
// the original program").
func New[I, S, O any](compute Compute[I, S, O], aux Aux[I, S], ops StateOps[S]) *Dependence[I, S, O] {
	if compute == nil {
		panic("core: nil compute")
	}
	if ops.Clone == nil {
		panic("core: nil state clone")
	}
	return &Dependence[I, S, O]{compute: compute, aux: aux, ops: ops}
}

// Run processes inputs starting from initial, returning the outputs in input
// order, the final state, and run statistics. The initial state is not
// mutated (it is cloned before first use).
//
// Fault isolation: a panic in user code on a speculative lane (a group
// execution, auxiliary-state production, or a boundary's match/redo) is
// contained — the affected groups are squashed and their inputs reprocessed
// sequentially, counted in Stats.PanickedGroups. A panic on the sequential
// or fallback path has no safe fallback left and propagates to the caller;
// use RunChecked to receive it as an error instead.
func (d *Dependence[I, S, O]) Run(inputs []I, initial S, opts Options) ([]O, S, Stats) {
	return d.runAll(inputs, initial, opts, nil)
}

// PanicError is the error RunChecked and RunStreamChecked return when user
// code panicked with no safe fallback left (on the sequential or fallback
// path): the original panic value plus the stack captured while the panic
// was still unwinding, so the panic site is preserved.
type PanicError struct {
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery
	// time during the unwind — it includes the panic origin's frames.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("core: user code panicked with no safe fallback: %v", e.Value)
}

// RunChecked is Run with sequential-path panics converted to a *PanicError
// instead of propagating. Speculative-lane panics are contained either way
// (see Run); RunChecked only changes how the unrecoverable ones surface.
func (d *Dependence[I, S, O]) RunChecked(inputs []I, initial S, opts Options) (outs []O, final S, st Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	outs, final, st = d.runAll(inputs, initial, opts, nil)
	return outs, final, st, nil
}

// runAll is the engine entry shared by Run and RunStream.
func (d *Dependence[I, S, O]) runAll(inputs []I, initial S, opts Options, emit Emit[O]) ([]O, S, Stats) {
	var st Stats
	st.Inputs = len(inputs)
	root := rng.New(opts.Seed)

	if len(inputs) == 0 {
		st.Groups = 0
		return nil, d.ops.Clone(initial), st
	}

	ctl := opts.Sched
	if ctl != nil {
		// Retire the coordinator lane however the run ends, including a
		// sequential-path panic unwinding through RunChecked.
		defer ctl.Done(opts.SchedLane)
	}

	g := opts.GroupSize
	if g < 1 {
		g = 1
	}
	// Reservations need no auxiliary code; aux speculation does.
	speculating := opts.UseAux && g < len(inputs) &&
		(opts.Protocol == ProtocolReservations || d.aux != nil)
	if speculating && opts.Breaker != nil {
		if ctl != nil {
			ctl.Yield(sched.PointBreakerAllow, opts.SchedLane)
		}
		if !opts.Breaker.Allow() {
			speculating = false
			st.BreakerDenied = 1
			if o := opts.Obs; o != nil {
				o.BreakerDenied.Inc()
				o.Tracer.Emit(obs.LaneCoord, obs.EvBreakerDenied, -1, 0)
			}
		}
	}
	if !speculating {
		outs, final := d.runSequential(root, inputs, d.ops.Clone(initial), &st, emit, 0)
		st.Groups = 1
		return outs, final, st
	}
	var (
		outs  []O
		final S
		stats Stats
	)
	switch opts.Protocol {
	case ProtocolAux:
		outs, final, stats = d.runSpeculative(root, inputs, initial, g, opts, &st, emit)
	case ProtocolReservations:
		outs, final, stats = d.runReservations(root, inputs, initial, g, opts, &st, emit)
	default:
		panic(fmt.Sprintf("core: unknown protocol %d", opts.Protocol))
	}
	if opts.Breaker != nil {
		if ctl != nil {
			ctl.Yield(sched.PointBreakerRecord, opts.SchedLane)
		}
		opts.Breaker.Record(stats.Aborts > 0 || stats.PanickedGroups > 0 || stats.TimedOutGroups > 0)
	}
	return outs, final, stats
}

// runSequential is the conventional execution: one invocation after
// another. Outputs stream through emit (when non-nil) as they are
// computed; base is the global index of the first input.
func (d *Dependence[I, S, O]) runSequential(r *rng.Source, inputs []I, s S, st *Stats, emit Emit[O], base int) ([]O, S) {
	outs := make([]O, 0, len(inputs))
	// One reused child source for the whole walk: SplitInto draws the
	// same stream per invocation as the old per-call Split without an
	// allocation per input.
	var src rng.Source
	for i, in := range inputs {
		var o O
		r.SplitInto(&src)
		o, s = d.compute(&src, in, s)
		st.Invocations++
		st.UsefulInvocations++
		outs = append(outs, o)
		if emit != nil {
			emit(base+i, o)
		}
	}
	return outs, s
}

// execution is one (re-)execution of a group suffix: its outputs and final
// state.
type execution[S, O any] struct {
	outputs []O
	final   S
}

// groupFailure records why a group's speculative results are unusable.
type groupFailure int

const (
	failNone      groupFailure = iota
	failPanic                  // user code panicked (contained)
	failTimeout                // the lane exceeded Options.GroupTimeout
	failFootprint              // the FootprintCheck oracle caught a lying footprint
)

// groupRun holds the state of one input group during a speculative run.
// Records are owned by a runScratch and recycled run after run: every
// scalar field is reset by begin, the random sources are re-split into
// place, and the output buffers keep their capacity with their elements
// cleared between runs (no stale user values parked in the pool).
type groupRun[I, S, O any] struct {
	idx        int // group index, used as the trace lane hint
	start, end int // input index range [start, end)
	specStart  S   // the state the group started from (spec or S0)

	// First (original) execution results.
	base execution[S, O]
	// checkpoint is the state before the last W inputs of the group,
	// from which re-executions restart; checkpointAt is its input index.
	checkpoint   S
	checkpointAt int

	// specSrc feeds the group's auxiliary code, execSrc its execution,
	// and redoSrc its re-executions; callSrc and redoCallSrc are the
	// per-invocation children execSrc/redoSrc split into (value storage,
	// so a warm run derives every stream without allocating).
	specSrc     rng.Source
	execSrc     rng.Source
	redoSrc     rng.Source
	callSrc     rng.Source
	redoCallSrc rng.Source

	// ctl and lane are the run's controlled scheduler and this group's
	// lane in it (nil/0 when the run is uncontrolled).
	ctl  sched.Controller
	lane int

	// done is a one-shot latch per run (Add(1) before launch, Done on
	// lane exit, Wait on the coordinator); a WaitGroup rather than a
	// channel so it can be rearmed when the record is recycled.
	done    sync.WaitGroup
	aborted atomic.Bool // set to squash this group's in-flight work

	// failure is why the group's results are unusable, with failArg the
	// matching event argument (elapsed ns for timeouts) and panicErr the
	// contained panic's value+stack when failure is failPanic. Written
	// by the lane before done.Done(), or by the coordinator before
	// launch (aux panic) / after done.Wait() (match/redo panic), so
	// every read — the boundary inspection and the post-wg.Wait sweep —
	// is ordered after the write.
	failure  groupFailure
	failArg  int64
	panicErr *PanicError

	// execNS is the group execution's wall-clock lane time and
	// checkpointNS the part of it spent before the checkpoint, written
	// by the lane before done.Done() and read by the coordinator after
	// done.Wait() for wasted-work attribution.
	execNS       int64
	checkpointNS int64

	// outBuf, redoBuf and spliceBuf back the group's execution outputs,
	// its re-execution outputs, and the spliced committed outputs.
	outBuf    []O
	redoBuf   []O
	spliceBuf []O
}

// runScratch is the recycled working set of one runSpeculative call:
// the run environment, group records, the per-group timing/committed
// arrays, the originals set, and the pool tasks with their closures. A
// Dependence keeps scratches in a sync.Pool, so a warm Run allocates only
// what it must return (the outputs slice) plus whatever user code
// allocates. Task closures are created once per group slot and index into
// the scratch, which is why they survive recycling: each run rebinds the
// fields the closures read.
type runScratch[I, S, O any] struct {
	runEnv
	d      *Dependence[I, S, O]
	inputs []I

	rollback  int
	timeout   time.Duration
	numGroups int

	groups []*groupRun[I, S, O]
	tasks  []pool.Task

	auxNS    []int64
	commitNS []int64
	wasteNS  []int64

	committed []execution[S, O]
	originals []S

	wg          sync.WaitGroup
	invocations atomic.Int64
}

// getScratch fetches (or builds) a scratch for one speculative run.
func (d *Dependence[I, S, O]) getScratch() *runScratch[I, S, O] {
	if v := d.scratch.Get(); v != nil {
		return v.(*runScratch[I, S, O])
	}
	return &runScratch[I, S, O]{d: d}
}

// begin sizes the scratch for numGroups groups and resets every record.
// It does not arm the done latches — that happens at launch, so a panic
// on the coordinator between begin and launch (an uncontained group-0
// clone) cannot leave a latch armed for the next run.
func (scr *runScratch[I, S, O]) begin(inputs []I, numGroups int, opts *Options, st *Stats) {
	scr.bind(st, opts)
	scr.inputs = inputs
	scr.rollback = opts.Rollback
	scr.timeout = opts.GroupTimeout
	scr.numGroups = numGroups
	scr.invocations.Store(0)
	for len(scr.groups) < numGroups {
		j := len(scr.groups)
		scr.groups = append(scr.groups, &groupRun[I, S, O]{})
		scr.tasks = append(scr.tasks, func() { scr.groupTask(j) })
	}
	scr.auxNS = cleared(scr.auxNS, numGroups)
	scr.commitNS = cleared(scr.commitNS, numGroups)
	scr.wasteNS = cleared(scr.wasteNS, numGroups)
	scr.committed = cleared(scr.committed, numGroups)
	scr.originals = scr.originals[:0]
}

// release clears every state-holding reference so the parked scratch
// retains no user data, then returns it to the dependence's pool. Callers
// must not touch the scratch afterwards; everything a run returns (the
// outputs slice, the final state, Stats) is copied out before release.
func (scr *runScratch[I, S, O]) release() {
	var zeroS S
	for _, gr := range scr.groups[:scr.numGroups] {
		gr.specStart = zeroS
		gr.checkpoint = zeroS
		gr.base = execution[S, O]{}
		gr.panicErr = nil
		clear(gr.outBuf[:cap(gr.outBuf)])
		clear(gr.redoBuf[:cap(gr.redoBuf)])
		clear(gr.spliceBuf[:cap(gr.spliceBuf)])
	}
	clear(scr.committed[:scr.numGroups])
	clear(scr.originals[:cap(scr.originals)])
	scr.inputs = nil
	scr.runEnv = runEnv{}
	scr.d.scratch.Put(scr)
}

// groupTask is the pool task body for group slot j: the per-slot closure
// wrapping it is created once and recycled with the scratch.
func (scr *runScratch[I, S, O]) groupTask(j int) {
	gr := scr.groups[j]
	defer scr.wg.Done()
	defer gr.done.Done()
	if scr.ctl != nil {
		// Retire the group lane on every exit, panic included, before
		// the done latch releases the coordinator.
		defer scr.ctl.Done(gr.lane)
	}
	// Panic isolation: a panic in user code on this lane marks the group
	// failed — value and stack preserved — and squashes it together with
	// its successors; their results would be discarded anyway once the
	// boundary inspection aborts here. Earlier groups are left running;
	// their results are still committable.
	if pe := contain(func() {
		scr.d.executeGroup(scr.inputs, gr, scr.rollback, scr.timeout, &scr.invocations, scr.o)
	}); pe != nil {
		gr.failure, gr.panicErr = failPanic, pe
		for _, g := range scr.groups[j:scr.numGroups] {
			g.aborted.Store(true)
		}
	}
}

// finishLaneCPU resolves the lane-time attribution once the outcome is
// known: groups before abortAt (all of them when abortAt < 0) committed
// their exec+aux lane time, groups at or past it wasted theirs; redo,
// splice and fallback time was already filed into commitNS/wasteNS at the
// boundary that spent it. Every read of execNS is ordered after the
// lane's write by the done latch or wg.Wait.
func (scr *runScratch[I, S, O]) finishLaneCPU(abortAt int) {
	for j, gr := range scr.groups[:scr.numGroups] {
		spent := gr.execNS + scr.auxNS[j]
		if abortAt >= 0 && j >= abortAt {
			scr.wasteNS[j] += spent
		} else {
			scr.commitNS[j] += spent
		}
		scr.fileLaneCPU(j, scr.commitNS[j], scr.wasteNS[j])
	}
}

// cleared returns s resized to length n with every element zeroed,
// reusing capacity when it suffices.
func cleared[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// runSpeculative implements the §3.1 execution model. Outputs stream
// through emit (when non-nil) at their commit points: a group's outputs
// become final when the NEXT boundary's validation resolves (a redo may
// splice its suffix until then), the last group's at run completion, and
// fallback outputs as they are computed.
func (d *Dependence[I, S, O]) runSpeculative(root *rng.Source, inputs []I, initial S, g int, opts Options, st *Stats, emit Emit[O]) ([]O, S, Stats) {
	n := len(inputs)
	numGroups := (n + g - 1) / g
	st.Groups = numGroups
	window := max(opts.Window, 0)
	redoMax := max(opts.RedoMax, 0)

	o := opts.Obs
	scr := d.getScratch()
	scr.begin(inputs, numGroups, &opts, st)
	defer scr.release()
	groups := scr.groups[:numGroups]

	// Derive all random streams on the coordinator so the run is
	// reproducible regardless of scheduling: per-group spec stream,
	// execution stream, and redo stream, split into the recycled records
	// in the same order a cold run would Split them.
	for j, gr := range groups {
		gr.idx = j
		gr.start, gr.end = j*g, min(n, (j+1)*g)
		gr.ctl, gr.lane = opts.Sched, opts.SchedLane+1+j
		root.SplitInto(&gr.specSrc)
		root.SplitInto(&gr.execSrc)
		root.SplitInto(&gr.redoSrc)
		gr.aborted.Store(false)
		gr.failure, gr.failArg, gr.panicErr = failNone, 0, nil
		gr.execNS, gr.checkpointNS = 0, 0
		gr.checkpointAt = 0
	}

	// Speculative start states: group 0 starts from the initial state;
	// group j>0 from aux(S0, last `window` inputs before the group). A
	// panic in the auxiliary code (or the state clone feeding it) marks
	// the group failed before launch: its lane bails immediately and the
	// boundary inspection below turns the failure into an abort. auxNS,
	// commitNS and wasteNS feed the wasted-work attribution: per-group
	// lane nanoseconds, resolved into committed vs discarded when the
	// run's outcome is known (finishLaneCPU).
	groups[0].specStart = d.ops.Clone(initial)
	commitNS, wasteNS := scr.commitNS, scr.wasteNS
	for _, gr := range groups[1:] {
		recent := inputs[max(gr.start-window, 0):gr.start]
		st.AuxCalls++
		st.AuxInputs += len(recent)
		scr.yield(sched.PointAux)
		auxStart := time.Now()
		pe := contain(func() { gr.specStart = d.aux(&gr.specSrc, d.ops.Clone(initial), recent) })
		scr.auxNS[gr.idx] = time.Since(auxStart).Nanoseconds()
		if pe != nil {
			gr.failure, gr.panicErr = failPanic, pe
			gr.aborted.Store(true)
			continue
		}
		if o != nil {
			o.AuxProduced.Inc()
			o.Tracer.Emit(gr.idx, obs.EvAuxProduced, int32(gr.idx), int64(len(recent)))
		}
	}

	// Launch every group; each runs its inputs sequentially from its
	// (speculative) start state, checkpointing before its last W inputs.
	scr.openPool(&opts)
	defer scr.closePool()
	// The task bodies (groupTask) and their closures live in the scratch;
	// arm the latches only now, so nothing between begin and launch can
	// strand an armed latch into the next run.
	for _, gr := range groups {
		scr.wg.Add(1)
		gr.done.Add(1)
	}
	scr.dispatch(scr.tasks[:numGroups], nil)

	// Validate in input order. Group 0 is never speculative. For each
	// group, first check the group's own execution survived (no contained
	// panic, no deadline squash); then, past group 0, gather originals
	// from the previous group (first execution plus up to redoMax
	// re-executions) and ask the developer's acceptance method whether
	// the speculative start state matches. committed holds, per validated
	// group, the execution whose outputs are committed.
	committed := scr.committed
	abortAt := -1 // first group index whose speculation failed
	// abort squashes groups j.. and records the boundary outcome. The
	// squash yield comes AFTER the abort flags are set (a post-write
	// yield): parking the coordinator there lets the controller decide
	// which in-flight lanes observe the squash mid-group and which run
	// to completion first — the validate/squash race the exploration
	// harness targets.
	abort := func(j, redosUsed int) {
		abortAt = j
		scr.recordAbort(j, redosUsed)
		for _, gr := range groups[j:] {
			gr.aborted.Store(true)
			scr.recordSquash(gr.idx, gr.end-gr.start)
		}
		scr.yield(sched.PointSquash)
	}

	for j := 0; j < numGroups && abortAt < 0; j++ {
		cur := groups[j]
		scr.wait(&cur.done)
		if cur.failure != failNone {
			// The group's own results are unusable (contained panic or
			// deadline): squash it like a mismatch with no redo budget.
			// Group 0 ran from the true initial state, so its failure
			// leaves nothing committed and the whole vector falls back.
			abort(j, 0)
			break
		}
		if j == 0 {
			committed[0] = cur.base
			continue
		}
		prev := groups[j-1]

		// The previous group's final state depends on which of its
		// executions was committed; re-executions below replace only
		// the suffix after the checkpoint, so the originals set always
		// extends the committed prefix. The originals accumulate in
		// recycled scratch storage.
		var vstart time.Time
		if o != nil {
			vstart = time.Now()
		}
		scr.yield(sched.PointValidate)
		originals := append(scr.originals[:0], committed[j-1].final)
		matched, pe := d.matchAny(cur.specStart, originals)
		acceptedExec := committed[j-1]
		if o != nil && pe == nil && !matched {
			o.Mismatches.Inc()
			o.Tracer.Emit(obs.LaneCoord, obs.EvValidateMismatch, int32(j), 0)
		}

		// Redo lane time burned at this boundary is wasted work on the
		// producing group, except an accepted re-execution's: it produced
		// committed outputs, and the first execution's post-checkpoint
		// suffix it replaced is the waste instead.
		redosUsed := 0
		for t := 0; pe == nil && !matched && t < redoMax; t++ {
			if o != nil {
				o.Redos.Inc()
				o.Tracer.Emit(obs.LaneCoord, obs.EvRedo, int32(j), int64(t+1))
			}
			scr.yield(sched.PointRedo)
			redoStart := time.Now()
			var redo execution[S, O]
			// A panicking re-execution (prev's compute or clone) leaves
			// the boundary unresolvable, so the unvalidated group is
			// squashed and the panic attributed to it.
			pe = contain(func() { redo = d.redoGroup(prev, inputs, &scr.invocations) })
			redoNS := time.Since(redoStart).Nanoseconds()
			if pe != nil {
				wasteNS[j-1] += redoNS
				break
			}
			st.Redos++
			redosUsed++
			originals = append(originals, redo.final)
			if matched, pe = d.matchAny(cur.specStart, originals); !matched {
				wasteNS[j-1] += redoNS
				continue
			}
			// Commit the matching re-execution's suffix in place of the
			// first execution's.
			acceptedExec = spliceExecution(committed[j-1], redo, prev)
			spliced := prev.execNS - prev.checkpointNS
			commitNS[j-1] += redoNS - spliced
			wasteNS[j-1] += spliced
		}
		scr.originals = originals
		if pe != nil {
			cur.failure, cur.panicErr = failPanic, pe
			abort(j, redosUsed)
			break
		}

		if matched {
			st.Matches++
			if o != nil {
				o.Matches.Inc()
				o.Tracer.Emit(obs.LaneCoord, obs.EvValidateMatch, int32(j), int64(redosUsed))
			}
		} else {
			// Speculation failed: abort this and all subsequent groups.
			abort(j, redosUsed)
		}
		if o != nil {
			o.ValidationLatencyNS.Observe(time.Since(vstart).Nanoseconds())
			o.RedosPerValidation.Observe(int64(redosUsed))
		}
		if !matched {
			break
		}
		committed[j-1] = acceptedExec
		committed[j] = cur.base
		emitExec(emit, committed[j-1], prev.start)
	}

	// Wait out in-flight groups (after an abort they bail early on the
	// aborted flag) and commit the validated prefix in order.
	scr.wait(&scr.wg)
	commitEnd := numGroups
	if abortAt >= 0 {
		commitEnd = abortAt
	}
	outs := make([]O, 0, n)
	for j, gr := range groups[:commitEnd] {
		outs = append(outs, committed[j].outputs...)
		if j > 0 {
			st.SpeculativeCommits += gr.end - gr.start
			if o != nil {
				o.SpecCommittedInputs.Add(int64(gr.end - gr.start))
			}
		}
	}
	st.Invocations += scr.invocations.Load()
	if abortAt < 0 {
		emitExec(emit, committed[numGroups-1], groups[numGroups-1].start)
		st.UsefulInvocations += int64(n) // one committed invocation per input
		scr.finishLaneCPU(abortAt)
		scr.captureScheduler()
		return outs, committed[numGroups-1].final, *st
	}

	// Abort path: squash the in-flight outputs and reprocess the
	// remaining inputs sequentially from the first original final state
	// of the last valid group (the uncloned initial state when group 0
	// itself failed). Per §3.1, "no other speculation is performed until
	// all the current inputs are processed." Every lane is done, so the
	// failure flags are final: count and trace each contained panic and
	// deadline squash — groups past the abort point may have failed
	// concurrently before the squash reached them, and those panics were
	// contained too. The panic's value and stack ride out of the run in
	// Stats.Panics (the EvPanic event's fixed-size argument stays the
	// input count).
	for _, gr := range groups {
		if gr.failure == failPanic && gr.panicErr != nil {
			st.Panics = append(st.Panics, gr.panicErr)
		}
		scr.recordFailure(gr.failure, gr.idx, gr.end-gr.start, gr.failArg)
	}
	fallbackState := d.ops.Clone(initial)
	if abortAt > 0 {
		emitExec(emit, committed[abortAt-1], groups[abortAt-1].start)
		fallbackState = committed[abortAt-1].final
	}
	fallbackStart := groups[abortAt].start
	scr.enterFallback(abortAt, n-fallbackStart, n-fallbackStart)
	fbStart := time.Now()
	fbOuts, final := d.runSequential(root, inputs[fallbackStart:], fallbackState, st, emit, fallbackStart)
	// The sequential fallback produced committed outputs; its time is
	// filed against the aborting group, whose speculative work it redid.
	commitNS[abortAt] += time.Since(fbStart).Nanoseconds()
	outs = append(outs, fbOuts...)
	st.UsefulInvocations += int64(fallbackStart)
	scr.finishLaneCPU(abortAt)
	scr.captureScheduler()
	return outs, final, *st
}

// matchAny runs the developer's acceptance method with panic
// containment. A nil MatchAny accepts by construction.
func (d *Dependence[I, S, O]) matchAny(spec S, originals []S) (matched bool, pe *PanicError) {
	if d.ops.MatchAny == nil {
		return true, nil
	}
	pe = contain(func() { matched = d.ops.MatchAny(spec, originals) })
	return matched, pe
}

// emitExec streams one committed execution's outputs.
func emitExec[S, O any](emit Emit[O], exec execution[S, O], base int) {
	if emit == nil {
		return
	}
	for i, o := range exec.outputs {
		emit(base+i, o)
	}
}

// executeGroup runs one group's inputs sequentially from its start state,
// recording the checkpoint needed for re-executions. If the group is
// aborted mid-flight it bails out early; its results are then never read.
// A positive timeout bounds the group's wall-clock execution (group 0 is
// exempt: its outputs commit unconditionally, so squashing it gains
// nothing). Group start/finish events go to ob (nil-checked) so the
// observed schedule shows every group's execution span, squashed or not.
//
// Under a controller (gr.ctl) the lane yields at start, before every
// step's abort-flag inspection, and at finish; with a deadline it asks
// the controller each step whether the deadline expired instead of
// consulting the real clock, because serialized lanes spend most of
// their wall-clock time parked.
func (d *Dependence[I, S, O]) executeGroup(inputs []I, gr *groupRun[I, S, O], rollback int, timeout time.Duration, invocations *atomic.Int64, ob *obs.Observer) {
	length := gr.end - gr.start
	w := rollback
	if w < 1 {
		w = 1
	}
	if w > length {
		w = length
	}
	checkpointAt := gr.end - w

	ctl := gr.ctl
	deadlined := timeout > 0 && gr.idx > 0
	started := time.Now()
	// Record the lane time on every exit — panic included, so a contained
	// user-code panic still attributes the CPU burned before it.
	defer func() {
		gr.execNS = time.Since(started).Nanoseconds()
	}()
	if ctl != nil {
		ctl.Yield(sched.PointGroupStart, gr.lane)
	}
	if ob != nil {
		ob.GroupsStarted.Inc()
		ob.Tracer.Emit(gr.idx, obs.EvGroupStart, int32(gr.idx), int64(gr.start))
	}
	s := d.ops.Clone(gr.specStart)
	outs := gr.outBuf[:0]
	gr.checkpointAt = checkpointAt
	for idx := gr.start; idx < gr.end; idx++ {
		if ctl != nil {
			// Yield before the abort-flag inspection, so the controller
			// decides whether this step observes a concurrent squash.
			ctl.Yield(sched.PointGroupStep, gr.lane)
		}
		if gr.aborted.Load() {
			// Squashed: record what we have; it will be discarded.
			break
		}
		if deadlined {
			// Deadline exceeded: squash exactly like a validation
			// mismatch. Only this lane is marked; the coordinator's
			// boundary inspection squashes the successors.
			if expired, elapsedNS := deadlineExpired(ctl, gr.lane, started, timeout); expired {
				gr.failure, gr.failArg = failTimeout, elapsedNS
				gr.aborted.Store(true)
				break
			}
		}
		if idx == checkpointAt {
			gr.checkpointNS = time.Since(started).Nanoseconds()
			gr.checkpoint = d.ops.Clone(s)
		}
		var o O
		gr.execSrc.SplitInto(&gr.callSrc)
		o, s = d.compute(&gr.callSrc, inputs[idx], s)
		invocations.Add(1)
		outs = append(outs, o)
	}
	if ctl != nil {
		ctl.Yield(sched.PointGroupFinish, gr.lane)
	}
	gr.outBuf = outs
	gr.base = execution[S, O]{outputs: outs, final: s}
	if ob != nil {
		ob.GroupsFinished.Inc()
		ob.Tracer.Emit(gr.idx, obs.EvGroupFinish, int32(gr.idx), int64(len(outs)))
	}
}

// redoGroup re-executes the suffix of a group after its checkpoint with
// fresh randomness, returning the suffix execution. The outputs reuse the
// group's redo buffer: a boundary consumes each redo (accepting it into a
// splice or discarding it) before requesting the next, so one buffer per
// group suffices.
func (d *Dependence[I, S, O]) redoGroup(gr *groupRun[I, S, O], inputs []I, invocations *atomic.Int64) execution[S, O] {
	s := d.ops.Clone(gr.checkpoint)
	outs := gr.redoBuf[:0]
	for idx := gr.checkpointAt; idx < gr.end; idx++ {
		var o O
		gr.redoSrc.SplitInto(&gr.redoCallSrc)
		o, s = d.compute(&gr.redoCallSrc, inputs[idx], s)
		invocations.Add(1)
		outs = append(outs, o)
	}
	gr.redoBuf = outs
	return execution[S, O]{outputs: outs, final: s}
}

// spliceExecution replaces the post-checkpoint suffix of base with the
// re-executed suffix, yielding the committed execution for the group. The
// merged outputs live in the group's splice buffer — a group is spliced
// at most once per run (an accepted redo ends its boundary), so the
// buffer is never overwritten while referenced.
func spliceExecution[I, S, O any](base execution[S, O], redo execution[S, O], gr *groupRun[I, S, O]) execution[S, O] {
	prefix := gr.checkpointAt - gr.start
	outs := gr.spliceBuf[:0]
	outs = append(outs, base.outputs[:prefix]...)
	outs = append(outs, redo.outputs...)
	gr.spliceBuf = outs
	return execution[S, O]{outputs: outs, final: redo.final}
}
