package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
)

// Property-style observability invariants: for randomized option vectors
// over the same nondeterministic walk as the accounting test, the event
// log and metrics the observability layer records must agree with each
// other and with the engine's own Stats — the event stream is not a
// best-effort narration but a second, independently-consistent account of
// the run:
//
//   - counters reconcile with Stats: aborts, redos, matches, squashed
//     groups' inputs, fallback inputs, groups started/finished, aux calls;
//   - histogram totals reconcile with counter totals: the validation
//     latency histogram has one observation per resolved boundary
//     (matches + aborts) and the redos-per-validation histogram's sum is
//     the redo counter;
//   - per group, events are well-ordered in time: aux-produced <= group
//     start <= group finish <= that group's validation outcome;
//   - a sequential run (one group) emits no speculation events at all.
func TestObservabilityInvariantsRandomized(t *testing.T) {
	r := rng.New(0x0B5E)
	const cases = 240
	sawAbort, sawRedo, sawMatch := false, false, false
	for c := 0; c < cases; c++ {
		n := r.Intn(81)
		inputs := seqInputs(n)
		opts := Options{
			UseAux:    r.Bool(0.9),
			GroupSize: 1 + r.Intn(40),
			Window:    r.Intn(11),
			RedoMax:   r.Intn(5),
			Rollback:  r.Intn(7),
			Workers:   1 + r.Intn(6),
			Seed:      r.Uint64(),
		}
		tol := r.Range(0.05, 3.0)
		ob := obs.NewObserver(1+r.Intn(8), 4096)
		opts.Obs = ob
		d := New(nondetCompute, noiselessAuxFor(inputs), tolerantOps(tol))
		outs, _, st := d.Run(inputs, walkState{}, opts)
		name := fmt.Sprintf("case %d (n=%d opts=%+v tol=%.2f)", c, n, opts, tol)

		checkOutputs(t, outs, wantOutputs(inputs))
		if d := ob.Tracer.Dropped(); d != 0 {
			t.Fatalf("%s: %d events evicted despite ample capacity", name, d)
		}
		events := ob.Tracer.Snapshot()

		// Counters vs engine stats.
		for _, chk := range []struct {
			what string
			got  int64
			want int64
		}{
			{"aborts", ob.Aborts.Value(), int64(st.Aborts)},
			{"redos", ob.Redos.Value(), int64(st.Redos)},
			{"matches", ob.Matches.Value(), int64(st.Matches)},
			{"fallback inputs", ob.FallbackInputs.Value(), int64(st.FallbackInputs)},
			{"aux calls", ob.AuxProduced.Value(), int64(st.AuxCalls)},
		} {
			if chk.got != chk.want {
				t.Fatalf("%s: observer %s %d, engine %d", name, chk.what, chk.got, chk.want)
			}
		}
		if ob.GroupsStarted.Value() != ob.GroupsFinished.Value() {
			t.Fatalf("%s: %d groups started, %d finished",
				name, ob.GroupsStarted.Value(), ob.GroupsFinished.Value())
		}

		// Event counts vs counters: with no eviction, every counted
		// decision has exactly one event.
		kindCount := map[obs.EventKind]int64{}
		var squashedInputs int64
		for _, e := range events {
			kindCount[e.Kind]++
			if e.Kind == obs.EvSquash {
				squashedInputs += e.Arg
			}
		}
		if kindCount[obs.EvAbort] != int64(st.Aborts) {
			t.Fatalf("%s: %d abort events, engine aborted %d", name, kindCount[obs.EvAbort], st.Aborts)
		}
		if kindCount[obs.EvRedo] != int64(st.Redos) {
			t.Fatalf("%s: %d redo events, engine redid %d", name, kindCount[obs.EvRedo], st.Redos)
		}
		if kindCount[obs.EvValidateMatch] != int64(st.Matches) {
			t.Fatalf("%s: %d match events, engine matched %d", name, kindCount[obs.EvValidateMatch], st.Matches)
		}
		if kindCount[obs.EvAuxProduced] != int64(st.AuxCalls) {
			t.Fatalf("%s: %d aux events, engine ran aux %d times", name, kindCount[obs.EvAuxProduced], st.AuxCalls)
		}
		if kindCount[obs.EvGroupStart] != ob.GroupsStarted.Value() {
			t.Fatalf("%s: %d start events, counter %d", name, kindCount[obs.EvGroupStart], ob.GroupsStarted.Value())
		}
		if squashedInputs != int64(st.SquashedInputs) {
			t.Fatalf("%s: squash events cover %d inputs, engine squashed %d",
				name, squashedInputs, st.SquashedInputs)
		}

		// Wasted-work attribution: the lane-CPU events, the counters and
		// Stats are three accounts of the same nanoseconds.
		var evCPUCommitted, evCPUWasted int64
		for _, e := range events {
			switch e.Kind {
			case obs.EvLaneCPUCommitted:
				evCPUCommitted += e.Arg
			case obs.EvLaneCPUWasted:
				evCPUWasted += e.Arg
			}
		}
		if evCPUCommitted != st.LaneCPUCommittedNS || ob.LaneCPUCommitted.Value() != st.LaneCPUCommittedNS {
			t.Fatalf("%s: committed lane CPU events %d, counter %d, stats %d",
				name, evCPUCommitted, ob.LaneCPUCommitted.Value(), st.LaneCPUCommittedNS)
		}
		if evCPUWasted != st.LaneCPUWastedNS || ob.LaneCPUWasted.Value() != st.LaneCPUWastedNS {
			t.Fatalf("%s: wasted lane CPU events %d, counter %d, stats %d",
				name, evCPUWasted, ob.LaneCPUWasted.Value(), st.LaneCPUWastedNS)
		}

		// Histogram totals vs counter totals.
		boundaries := int64(st.Matches + st.Aborts)
		if got := ob.ValidationLatencyNS.Count(); got != boundaries {
			t.Fatalf("%s: latency histogram has %d observations, %d boundaries resolved",
				name, got, boundaries)
		}
		if got := ob.RedosPerValidation.Count(); got != boundaries {
			t.Fatalf("%s: redo histogram has %d observations, %d boundaries resolved",
				name, got, boundaries)
		}
		if got := ob.RedosPerValidation.Sum(); got != int64(st.Redos) {
			t.Fatalf("%s: redo histogram sums to %d, engine redid %d", name, got, st.Redos)
		}

		// Per-group ordering: aux <= start <= finish <= validation outcome.
		type groupTimes struct {
			aux, start, finish, outcome int64
			has                         [4]bool
		}
		gt := map[int32]*groupTimes{}
		at := func(g int32) *groupTimes {
			if gt[g] == nil {
				gt[g] = &groupTimes{}
			}
			return gt[g]
		}
		for _, e := range events {
			switch e.Kind {
			case obs.EvAuxProduced:
				g := at(e.Group)
				g.aux, g.has[0] = e.TS, true
			case obs.EvGroupStart:
				g := at(e.Group)
				g.start, g.has[1] = e.TS, true
			case obs.EvGroupFinish:
				g := at(e.Group)
				g.finish, g.has[2] = e.TS, true
			case obs.EvValidateMatch, obs.EvAbort:
				g := at(e.Group)
				g.outcome, g.has[3] = e.TS, true
			}
		}
		for id, g := range gt {
			if g.has[0] && g.has[1] && g.aux > g.start {
				t.Fatalf("%s: group %d aux at %d after start at %d", name, id, g.aux, g.start)
			}
			if g.has[1] && g.has[2] && g.start > g.finish {
				t.Fatalf("%s: group %d start at %d after finish at %d", name, id, g.start, g.finish)
			}
			if g.has[2] && g.has[3] && g.finish > g.outcome {
				t.Fatalf("%s: group %d finished at %d after its validation at %d",
					name, id, g.finish, g.outcome)
			}
		}

		// Sequential runs speculate nothing and must say so.
		if st.Groups <= 1 {
			for _, e := range events {
				switch e.Kind {
				case obs.EvSteal, obs.EvLocalHit, obs.EvTaskFinish:
					// Scheduler events can still occur (pool warmup).
				default:
					t.Fatalf("%s: sequential run emitted %v", name, e.Kind)
				}
			}
		}

		sawAbort = sawAbort || st.Aborts > 0
		sawRedo = sawRedo || st.Redos > 0
		sawMatch = sawMatch || st.Matches > 0
	}
	if !sawAbort || !sawRedo || !sawMatch {
		t.Fatalf("sample did not exercise all outcomes: abort=%v redo=%v match=%v",
			sawAbort, sawRedo, sawMatch)
	}
}

// TestSplicedExecutionIsWastedLaneCPU pins the lane-CPU identity for
// accepted redos: the redo's outputs commit, so the first execution's
// post-checkpoint suffix they replace was discarded work. A run in which
// every boundary rejects the first execution and accepts its first redo
// (no abort) must therefore report wasted lane CPU, in all three accounts.
func TestSplicedExecutionIsWastedLaneCPU(t *testing.T) {
	inputs := seqInputs(32)
	compute := func(r *rng.Source, in int, s walkState) (int, walkState) {
		time.Sleep(20 * time.Microsecond)
		return deterministicCompute(r, in, s)
	}
	ops := walkOps()
	ops.MatchAny = func(_ walkState, originals []walkState) bool { return len(originals) > 1 }
	ob := obs.NewObserver(4, 4096)
	d := New(compute, exactAuxFor(inputs), ops)
	outs, _, st := d.Run(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 8, Window: 8, RedoMax: 1, Rollback: 4, Workers: 2, Seed: 1, Obs: ob,
	})
	checkOutputs(t, outs, wantOutputs(inputs))
	if st.Aborts != 0 || st.Matches != st.Groups-1 || st.Redos != st.Groups-1 {
		t.Fatalf("want every boundary to accept its first redo: %+v", st)
	}
	if st.LaneCPUWastedNS <= 0 || ob.LaneCPUWasted.Value() != st.LaneCPUWastedNS {
		t.Fatalf("spliced-away executions not counted as wasted: stats %d ns, counter %d ns",
			st.LaneCPUWastedNS, ob.LaneCPUWasted.Value())
	}
}
