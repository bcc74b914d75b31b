package core

import (
	"sync"
	"testing"

	"repro/internal/pool"
)

// Recycling regression tests: the warm engine path must stay
// allocation-light (the run-scoped buffers come from the per-Dependence
// sync.Pool scratch, not the heap), and recycled state must never leak
// between concurrent runs sharing one Dependence.

// TestWarmRunAllocations is the self-calibrating allocation gate: the
// same 32-input group-8 run measured warm (reused Dependence) and cold
// (fresh Dependence per run, the seed path a one-shot caller pays), on a
// shared pool so neither side hides a private worker-pool construction.
// The warm aux path must hold ≤20% of cold — the ratio the PR's hot-path
// recycling is accountable for; the reservations protocol clones and
// returns caller-owned state every round, so its floor is higher and it
// gates on a strict improvement instead.
func TestWarmRunAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	if raceEnabled {
		t.Skip("race-mode sync.Pool drops puts at random; allocs/run is not meaningful")
	}
	inputs := benchInputs(32)
	p := pool.New(4)
	defer p.Close()
	base := Options{UseAux: true, GroupSize: 8, Window: 8, RedoMax: 1, Rollback: 4, Pool: p}

	t.Run("aux", func(t *testing.T) {
		var seed uint64
		cold := testing.AllocsPerRun(50, func() {
			d := New(cheapCompute, sumAux, walkOps())
			o := base
			o.Seed = seed
			seed++
			d.Run(inputs, walkState{}, o)
		})
		d := New(cheapCompute, sumAux, walkOps())
		o := base
		d.Run(inputs, walkState{}, o) // prime the recycled scratch
		warm := testing.AllocsPerRun(50, func() {
			o.Seed = seed
			seed++
			d.Run(inputs, walkState{}, o)
		})
		t.Logf("aux: warm %.1f allocs/run, cold %.1f (%.0f%%)", warm, cold, 100*warm/cold)
		if warm > cold/5 {
			t.Fatalf("warm aux run allocates %.1f/run, more than 20%% of the %.1f cold seed path", warm, cold)
		}
	})

	t.Run("reservations", func(t *testing.T) {
		reserve := ReserveOps[int, []float64]{
			NumSlots:  func(s []float64) int { return len(s) },
			Footprint: func(in int, _ []float64) []int { return []int{in % 8} },
			Merge: func(dst, src []float64, slots []int) []float64 {
				for _, sl := range slots {
					dst[sl] = src[sl]
				}
				return dst
			},
		}
		opts := base
		opts.Protocol = ProtocolReservations
		var seed uint64
		cold := testing.AllocsPerRun(50, func() {
			d := New(benchSlotCompute, nil, benchSlotOps()).WithReserve(reserve)
			o := opts
			o.Seed = seed
			seed++
			d.Run(inputs, make([]float64, 8), o)
		})
		d := New(benchSlotCompute, nil, benchSlotOps()).WithReserve(reserve)
		d.Run(inputs, make([]float64, 8), opts)
		warm := testing.AllocsPerRun(50, func() {
			o := opts
			o.Seed = seed
			seed++
			d.Run(inputs, make([]float64, 8), o)
		})
		t.Logf("reservations: warm %.1f allocs/run, cold %.1f (%.0f%%)", warm, cold, 100*warm/cold)
		if warm >= cold {
			t.Fatalf("warm reservations run allocates %.1f/run, no better than the %.1f cold seed path", warm, cold)
		}
	})
}

// TestRecycledScratchConcurrentRuns hammers one shared Dependence (and
// one shared abort-heavy Dependence) from many goroutines across both
// protocols and the sequential path. Every run must produce the exact
// deterministic outputs — a recycled buffer leaking between concurrent
// runs, or a released scratch still referenced by a straggler lane,
// shows up as corrupt outputs here and as a report under -race.
func TestRecycledScratchConcurrentRuns(t *testing.T) {
	inputs := seqInputs(64)
	want := wantOutputs(inputs)
	p := pool.New(8)
	defer p.Close()
	dGood := New(deterministicCompute, exactAuxFor(inputs), walkOps())
	dAbort := New(deterministicCompute, badAux, walkOps()) // every validation fails → abort → fallback

	const goroutines = 8
	runs := 12
	if testing.Short() {
		runs = 3
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				o := Options{
					GroupSize: 8, Window: 8, RedoMax: 1, Rollback: 4,
					Pool: p, Seed: uint64(g)<<32 | uint64(i),
				}
				d := dGood
				switch (g + i) % 4 {
				case 0: // aux speculation, validations succeed
					o.UseAux = true
				case 1: // deterministic reservations
					o.UseAux = true
					o.Protocol = ProtocolReservations
				case 2: // aux speculation, every group aborts into fallback
					o.UseAux = true
					d = dAbort
				case 3: // sequential path interleaved with the recyclers
				}
				outs, final, _ := d.Run(inputs, walkState{}, o)
				if len(outs) != len(want) {
					t.Errorf("g%d run %d: %d outputs, want %d", g, i, len(outs), len(want))
					return
				}
				for k := range want {
					if outs[k] != want[k] {
						t.Errorf("g%d run %d (mode %d): output[%d] = %d, want %d",
							g, i, (g+i)%4, k, outs[k], want[k])
						return
					}
				}
				var wantV float64
				for _, in := range inputs {
					wantV += float64(in)
				}
				if final.V != wantV {
					t.Errorf("g%d run %d: final state %v, want %v", g, i, final.V, wantV)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
