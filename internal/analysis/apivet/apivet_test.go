package apivet

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// analyzeSrc runs every analyzer over one source string.
func analyzeSrc(t *testing.T, src string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "test.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return AnalyzeFile(fset, file)
}

// want asserts a finding from the named analyzer mentioning every fragment.
func want(t *testing.T, ds []Diagnostic, analyzer string, fragments ...string) {
	t.Helper()
outer:
	for _, d := range ds {
		if d.Analyzer != analyzer {
			continue
		}
		for _, f := range fragments {
			if !strings.Contains(d.String(), f) {
				continue outer
			}
		}
		return
	}
	t.Fatalf("no %s finding containing %q; got: %v", analyzer, fragments, ds)
}

// wantNone asserts the analyzer stays silent.
func wantNone(t *testing.T, ds []Diagnostic, analyzer string) {
	t.Helper()
	for _, d := range ds {
		if d.Analyzer == analyzer {
			t.Fatalf("unexpected %s finding: %s", analyzer, d)
		}
	}
}

func TestNegOpts(t *testing.T) {
	ds := analyzeSrc(t, `package p
func f() {
	o := core.Options{GroupSize: 8, RedoMax: -1, Window: -2}
	s := workload.SpecOptions{Rollback: -3}
	_ = o
	_ = s
}`)
	want(t, ds, "negopts", "RedoMax is negative", "every mismatch aborts", "3:34")
	want(t, ds, "negopts", "Window is negative")
	want(t, ds, "negopts", "Rollback is negative")
}

func TestNegOptsIgnoresLegitimateValues(t *testing.T) {
	ds := analyzeSrc(t, `package p
func f() {
	o := core.Options{GroupSize: 8, RedoMax: 0, Window: w}
	n := notOptions{RedoMax: -1}
	_ = o
	_ = n
}`)
	wantNone(t, ds, "negopts")
}

func TestDroppedStats(t *testing.T) {
	ds := analyzeSrc(t, `package p
func f(w workload.Workload) {
	w.RunSTATS(1, 64, o)
	sd := stats.NewStateDependence(inputs, initial, compute)
	sd.Start()
	sd.Run()
}`)
	want(t, ds, "droppedstats", "result of RunSTATS discarded")
	want(t, ds, "droppedstats", "sd.Start() as a bare statement discards the error")
	want(t, ds, "droppedstats", "sd.Run() as a bare statement discards the outputs")
}

func TestDroppedStatsIgnoresConsumedResults(t *testing.T) {
	ds := analyzeSrc(t, `package p
func f(w workload.Workload) {
	res, st := w.RunSTATS(1, 64, o)
	sd := stats.NewStateDependence(inputs, initial, compute)
	if err := sd.Start(); err != nil {
		panic(err)
	}
	outs, _, _ := sd.Run()
	other.Run() // not a dependence: no finding
	_, _, _ = res, st, outs
}`)
	wantNone(t, ds, "droppedstats")
}

func TestSpecClosureInlineLiteral(t *testing.T) {
	ds := analyzeSrc(t, `package p
func f(inputs []int) {
	total := 0
	sd := core.New(func(r *rng.Source, in int, s state) (int, state) {
		total += in // captured write: race + squash corruption
		s.sum += in // fine: state parameter
		return in, s
	}, nil, ops)
	_ = sd
	_ = total
}`)
	want(t, ds, "specclosure", "mutates captured variable total")
	// Exactly one finding: the state-parameter write must not be flagged.
	n := 0
	for _, d := range ds {
		if d.Analyzer == "specclosure" {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("want exactly 1 specclosure finding, got %d: %v", n, ds)
	}
}

func TestSpecClosureBoundAuxiliary(t *testing.T) {
	ds := analyzeSrc(t, `package p
func f() {
	calls := 0
	aux := func(r *rng.Source, init state, recent []int) state {
		calls++
		local := init
		local.n = len(recent)
		return local
	}
	sd.SetAuxiliary(aux)
	_ = calls
}`)
	want(t, ds, "specclosure", "mutates captured variable calls")
}

func TestSpecClosureCleanClosuresPass(t *testing.T) {
	ds := analyzeSrc(t, `package p
func f() {
	scale := 2.0 // captured read: fine
	aux := func(r *rng.Source, init state, recent []float64) state {
		s := init
		for _, v := range recent {
			s.mean += v * scale
		}
		return s
	}
	sd.SetAuxiliary(aux)
	helper := func() { counter++ } // not speculated: not checked
	helper()
}`)
	wantNone(t, ds, "specclosure")
}

func TestAnalyzePathsWalksRepo(t *testing.T) {
	// The repository's own examples and workloads must be clean — the
	// acceptance bar for the analyzers' false-positive rate.
	ds, err := AnalyzePaths([]string{"../../../examples", "../../workload"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 0 {
		t.Fatalf("analyzers flag the repository's own code:\n%v", ds)
	}
}
