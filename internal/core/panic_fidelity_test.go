package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

// Panic-fidelity regression tests: every contained user-code panic must
// ride out of the run in Stats.Panics with its original value and a
// stack that still names the panic origin. These tests pin that across
// every containment site in both protocols.

// requirePanicRecord asserts some Stats.Panics entry carries the value
// and a stack naming this file.
func requirePanicRecord(t *testing.T, panics []*PanicError, want string) {
	t.Helper()
	if len(panics) == 0 {
		t.Fatalf("Stats.Panics is empty, want a record for %q", want)
	}
	for _, pe := range panics {
		if pe.Value != want {
			continue
		}
		if !strings.Contains(string(pe.Stack), "panic_fidelity_test.go") {
			t.Fatalf("panic %q lost its origin stack:\n%s", want, pe.Stack)
		}
		return
	}
	t.Fatalf("no Stats.Panics entry has value %q (got %d records, first: %v)",
		want, len(panics), panics[0].Value)
}

func TestPanicFidelityAux(t *testing.T) {
	inputs := seqInputs(12)
	aux := func(_ *rng.Source, init walkState, recent []int) walkState {
		panic("aux boom")
	}
	d := New(deterministicCompute, aux, walkOps())
	outs, _, st := d.Run(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 3, Window: 12, Workers: 4, Seed: 1,
	})
	checkOutputs(t, outs, wantOutputs(inputs))
	requirePanicRecord(t, st.Panics, "aux boom")
}

func TestPanicFidelitySpeculativeCompute(t *testing.T) {
	inputs := seqInputs(12)
	var fired atomic.Bool
	compute := func(r *rng.Source, in int, s walkState) (int, walkState) {
		if in == 8 && fired.CompareAndSwap(false, true) {
			panic("compute boom")
		}
		return deterministicCompute(r, in, s)
	}
	d := New(compute, exactAuxFor(inputs), walkOps())
	outs, _, st := d.Run(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 3, Window: 12, Workers: 4, Seed: 2,
	})
	checkOutputs(t, outs, wantOutputs(inputs))
	requirePanicRecord(t, st.Panics, "compute boom")
}

func TestPanicFidelityMatchAny(t *testing.T) {
	inputs := seqInputs(12)
	ops := walkOps()
	ops.MatchAny = func(walkState, []walkState) bool { panic("match boom") }
	d := New(deterministicCompute, exactAuxFor(inputs), ops)
	outs, _, st := d.Run(inputs, walkState{}, Options{
		UseAux: true, GroupSize: 3, Window: 12, Workers: 4, Seed: 3,
	})
	checkOutputs(t, outs, wantOutputs(inputs))
	requirePanicRecord(t, st.Panics, "match boom")
}

func TestPanicFidelityReservationsCompute(t *testing.T) {
	inputs := seqInputs(16)
	var fired atomic.Bool
	compute := func(r *rng.Source, in int, s walkState) (int, walkState) {
		if in == 5 && fired.CompareAndSwap(false, true) {
			panic("resv compute boom")
		}
		return deterministicCompute(r, in, s)
	}
	d := New(compute, nil, walkOps())
	outs, _, st := d.Run(inputs, walkState{}, Options{
		UseAux: true, Protocol: ProtocolReservations,
		GroupSize: 4, Workers: 4, Seed: 5,
	})
	checkOutputs(t, outs, wantOutputs(inputs))
	requirePanicRecord(t, st.Panics, "resv compute boom")
}

func TestPanicFidelityReservationsNumSlots(t *testing.T) {
	inputs := seqInputs(16)
	d := New(deterministicCompute, nil, walkOps()).WithReserve(ReserveOps[int, walkState]{
		NumSlots:  func(walkState) int { panic("numslots boom") },
		Footprint: func(int, walkState) []int { return []int{0} },
		Merge:     func(dst, src walkState, _ []int) walkState { return src },
	})
	outs, _, st := d.Run(inputs, walkState{}, Options{
		UseAux: true, Protocol: ProtocolReservations,
		GroupSize: 4, Workers: 4, Seed: 6,
	})
	checkOutputs(t, outs, wantOutputs(inputs))
	requirePanicRecord(t, st.Panics, "numslots boom")
}

func TestPanicFidelityReservationsMerge(t *testing.T) {
	inputs := seqInputs(16)
	var fired atomic.Bool
	d := New(deterministicCompute, nil, walkOps()).WithReserve(ReserveOps[int, walkState]{
		NumSlots:  func(walkState) int { return 1 },
		Footprint: func(int, walkState) []int { return []int{0} },
		Merge: func(dst, src walkState, _ []int) walkState {
			if fired.CompareAndSwap(false, true) {
				panic("merge boom")
			}
			return src
		},
	})
	outs, _, st := d.Run(inputs, walkState{}, Options{
		UseAux: true, Protocol: ProtocolReservations,
		GroupSize: 4, Workers: 4, Seed: 7,
	})
	checkOutputs(t, outs, wantOutputs(inputs))
	requirePanicRecord(t, st.Panics, "merge boom")
}
