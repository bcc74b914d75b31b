package core

import (
	"reflect"
	"testing"

	"repro/internal/rng"
)

// sumAux rebuilds the walk state exactly whenever the window covers every
// chunk input before the group: spec = init + sum(recent). Unlike
// exactAuxFor it needs no global positions, so it works under RunAdaptive's
// chunking.
func sumAux(_ *rng.Source, init walkState, recent []int) walkState {
	s := init
	for _, v := range recent {
		s.V += float64(v)
	}
	return s
}

func adaptiveOpts(seed uint64) AdaptiveOptions {
	return AdaptiveOptions{
		Options: Options{
			UseAux: true, GroupSize: 2, Window: 8, RedoMax: 2, Rollback: 2,
			Workers: 4, Seed: seed,
		},
		MinGroup: 2, MaxGroup: 16, ChunkGroups: 2,
	}
}

func TestAdaptivePreservesOutputs(t *testing.T) {
	inputs := seqInputs(60)
	d := New(deterministicCompute, sumAux, walkOps())
	outs, final, ast := d.RunAdaptive(inputs, walkState{}, adaptiveOpts(1))
	checkOutputs(t, outs, wantOutputs(inputs))
	if final.V != 1830 {
		t.Fatalf("final: %v", final.V)
	}
	if ast.Inputs != 60 || ast.Chunks < 2 {
		t.Fatalf("stats: %+v", ast)
	}
}

func TestAdaptiveWidensOnSuccess(t *testing.T) {
	// Perfect aux (as long as the window covers the chunk prefix): the
	// controller should widen groups well beyond the seed size.
	inputs := seqInputs(120)
	d := New(deterministicCompute, sumAux, walkOps())
	o := adaptiveOpts(2)
	o.MaxGroup = 8 // window 8 stays exact up to this group size
	_, _, ast := d.RunAdaptive(inputs, walkState{}, o)
	if len(ast.GroupSizes) < 2 {
		t.Fatalf("chunks: %v", ast.GroupSizes)
	}
	widest := 0
	for _, g := range ast.GroupSizes {
		if g > widest {
			widest = g
		}
	}
	if widest <= ast.GroupSizes[0] {
		t.Fatalf("group size did not widen: %v", ast.GroupSizes)
	}
	if widest > 8 {
		t.Fatalf("cap exceeded: %v", ast.GroupSizes)
	}
}

func TestAdaptiveNarrowsOnAborts(t *testing.T) {
	// Hopeless aux: every chunk aborts; the controller should pin the
	// group at the floor rather than keep wasting wide groups.
	inputs := seqInputs(80)
	d := New(deterministicCompute, badAux, walkOps())
	opts := adaptiveOpts(3)
	opts.GroupSize = 16
	outs, _, ast := d.RunAdaptive(inputs, walkState{}, opts)
	checkOutputs(t, outs, wantOutputs(inputs))
	last := ast.GroupSizes[len(ast.GroupSizes)-1]
	if last != opts.MinGroup {
		t.Fatalf("group did not narrow to floor: %v", ast.GroupSizes)
	}
	if ast.Aborts == 0 {
		t.Fatalf("expected aborts: %+v", ast.Stats)
	}
}

func TestAdaptiveMonotoneChunkBounds(t *testing.T) {
	inputs := seqInputs(50)
	d := New(nondetCompute, noiselessAuxFor(inputs), tolerantOps(1.0))
	_, _, ast := d.RunAdaptive(inputs, walkState{}, adaptiveOpts(7))
	for i, g := range ast.GroupSizes {
		if g < 2 || g > 16 {
			t.Fatalf("chunk %d group %d out of bounds", i, g)
		}
	}
}

func TestAdaptiveDeterministicPerSeed(t *testing.T) {
	inputs := seqInputs(48)
	run := func() ([]int, AdaptiveStats) {
		d := New(nondetCompute, noiselessAuxFor(inputs), tolerantOps(1.0))
		o, _, ast := d.RunAdaptive(inputs, walkState{}, adaptiveOpts(9))
		return o, ast
	}
	o1, a1 := run()
	o2, a2 := run()
	checkOutputs(t, o1, o2)
	if len(a1.GroupSizes) != len(a2.GroupSizes) {
		t.Fatal("trajectories differ")
	}
	for i := range a1.GroupSizes {
		if a1.GroupSizes[i] != a2.GroupSizes[i] {
			t.Fatalf("trajectory diverged at chunk %d", i)
		}
	}
}

func TestAdaptiveDefaults(t *testing.T) {
	o := AdaptiveOptions{}.withDefaults()
	if o.MinGroup != 2 || o.MaxGroup != 64 || o.ChunkGroups != 4 {
		t.Fatalf("defaults: %+v", o)
	}
	if o.GroupSize != 2 {
		t.Fatalf("seeded group: %d", o.GroupSize)
	}
	big := AdaptiveOptions{Options: Options{GroupSize: 1000}}.withDefaults()
	if big.GroupSize != 64 {
		t.Fatalf("clamp: %d", big.GroupSize)
	}
}

func TestAdaptiveEmptyInputs(t *testing.T) {
	d := New(deterministicCompute, nil, walkOps())
	outs, final, ast := d.RunAdaptive(nil, walkState{V: 3}, adaptiveOpts(1))
	if len(outs) != 0 || final.V != 3 || ast.Chunks != 0 {
		t.Fatalf("empty run: %d outputs, final %v, %+v", len(outs), final.V, ast)
	}
}

func TestAdaptiveBeatsFixedOnRegimeChange(t *testing.T) {
	// A workload whose aux works only in the second half: adaptive
	// shrinks groups during the failing regime and widens afterwards,
	// wasting less squashed work than a wide fixed configuration.
	inputs := seqInputs(96)
	regimeAux := func(r *rng.Source, init walkState, recent []int) walkState {
		if len(recent) > 0 && recent[len(recent)-1] <= 48 {
			return badAux(r, init, recent)
		}
		return sumAux(r, init, recent)
	}
	fixedWaste := func() int64 {
		d := New(deterministicCompute, regimeAux, walkOps())
		o := adaptiveOpts(5).Options
		o.GroupSize = 8
		_, _, st := d.Run(inputs, walkState{}, o)
		return st.Invocations - st.UsefulInvocations
	}()
	adaptiveWaste := func() int64 {
		d := New(deterministicCompute, regimeAux, walkOps())
		o := adaptiveOpts(5)
		o.GroupSize = 8
		o.MaxGroup = 8
		_, _, ast := d.RunAdaptive(inputs, walkState{}, o)
		return ast.Invocations - ast.UsefulInvocations
	}()
	// The fixed run aborts once and serializes everything after; the
	// adaptive run re-enables speculation per chunk. Compare wasted
	// invocations (fixed wastes a big squash; adaptive wastes small ones).
	if adaptiveWaste > fixedWaste*2 {
		t.Fatalf("adaptive wasted %d vs fixed %d", adaptiveWaste, fixedWaste)
	}
	// More importantly: adaptive commits speculative work in the good
	// regime, the fixed run cannot (speculation stays disabled after its
	// abort).
	dFixed := New(deterministicCompute, regimeAux, walkOps())
	oFixed := adaptiveOpts(5).Options
	oFixed.GroupSize = 8
	_, _, stFixed := dFixed.Run(inputs, walkState{}, oFixed)
	dAd := New(deterministicCompute, regimeAux, walkOps())
	oAd := adaptiveOpts(5)
	oAd.GroupSize = 8
	oAd.MaxGroup = 8
	_, _, astAd := dAd.RunAdaptive(inputs, walkState{}, oAd)
	if astAd.SpeculativeCommits <= stFixed.SpeculativeCommits {
		t.Fatalf("adaptive commits %d <= fixed %d", astAd.SpeculativeCommits, stFixed.SpeculativeCommits)
	}
}

// TestAccumulateCoversEveryField fills every numeric Stats field with a
// distinct non-zero value and folds it in twice: each summed field must
// double, so a field added to Stats but forgotten in accumulate fails
// here. Inputs is the caller's to set (stays zero) and QueueDepthPeak
// keeps the maximum; Panics concatenate.
func TestAccumulateCoversEveryField(t *testing.T) {
	var st Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		}
	}
	st.Panics = []*PanicError{{Value: "boom"}}
	var agg Stats
	accumulate(&agg, st)
	accumulate(&agg, st)
	a := reflect.ValueOf(agg)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		f := v.Field(i)
		if f.Kind() != reflect.Int && f.Kind() != reflect.Int64 {
			continue
		}
		want := 2 * f.Int()
		switch name {
		case "Inputs":
			want = 0
		case "QueueDepthPeak":
			want = f.Int()
		}
		if got := a.Field(i).Int(); got != want {
			t.Errorf("accumulate: %s = %d, want %d", name, got, want)
		}
	}
	if len(agg.Panics) != 2 {
		t.Errorf("accumulate: %d panics, want 2", len(agg.Panics))
	}
}
