package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
	"repro/internal/workload/streamcluster"
)

// Small inputs keep the test quick; the checks do not depend on size.
const testSize = 256

func testOptions(t *testing.T, protocol string) workload.SpecOptions {
	t.Helper()
	s, err := loadSettings()
	if err != nil {
		t.Fatal(err)
	}
	so, err := s.specOptions(workloadSpec{Name: "test", Protocol: protocol})
	if err != nil {
		t.Fatal(err)
	}
	return so
}

func testChecker(t *testing.T, reservations bool, w workload.Workload, seeds ...uint64) *checker {
	t.Helper()
	s, err := loadSettings()
	if err != nil {
		t.Fatal(err)
	}
	var refs []workload.Result
	for _, seed := range seeds {
		refs = append(refs, w.RunOriginal(seed, testSize))
	}
	return newChecker(s, reservations, w.RunOracle(testSize), refs)
}

// shifted is an output whose oracle distance is its inner output's plus d:
// a perturbed result that still passes any reproducibility check.
type shifted struct {
	workload.Result
	d float64
}

func (s shifted) Distance(ref workload.Result) float64 { return s.Result.Distance(ref) + s.d }

func TestReservationsOutputFromOtherSeedFails(t *testing.T) {
	w := streamcluster.New()
	c := testChecker(t, true, w, 1, 2)
	so := testOptions(t, "reservations")
	conv := so
	conv.UseAux = false
	for _, seed := range []uint64{1, 2} {
		ref, _ := w.RunSTATS(seed, testSize, conv)
		c.setReference(seed, ref)
	}
	good, _ := w.RunSTATS(1, testSize, so)
	if _, err := c.check(1, good); err != nil {
		t.Fatalf("seed 1 output against its own reference: %v", err)
	}
	wrong, _ := w.RunSTATS(2, testSize, so)
	if wrong.Distance(good) == 0 {
		t.Fatal("seeds 1 and 2 give the same output; the test needs differing outputs")
	}
	_, err := c.check(1, wrong)
	if err == nil || !strings.Contains(err.Error(), "UseAux=false") {
		t.Fatalf("seed 2 output checked as seed 1: err = %v, want a reference mismatch", err)
	}
	if c.attempted != 2 || c.failed != 1 {
		t.Fatalf("attempted/failed = %d/%d, want 2/1", c.attempted, c.failed)
	}
}

func TestReservationsWithoutReferenceFails(t *testing.T) {
	w := streamcluster.New()
	c := testChecker(t, true, w, 1)
	out, _ := w.RunSTATS(1, testSize, testOptions(t, "reservations"))
	if _, err := c.check(1, out); err == nil || c.failed != 1 {
		t.Fatalf("check without a reference: err = %v, failed = %d", err, c.failed)
	}
}

func TestAuxOutputDifferingFromFirstRepetitionFails(t *testing.T) {
	w := streamcluster.New()
	c := testChecker(t, false, w, 1, 2, 3)
	so := testOptions(t, "aux")
	first, _ := w.RunSTATS(1, testSize, so)
	again, _ := w.RunSTATS(1, testSize, so)
	other, _ := w.RunSTATS(2, testSize, so)
	for i, out := range []workload.Result{first, again} {
		if _, err := c.check(1, out); err != nil {
			t.Fatalf("repetition %d of seed 1: %v", i, err)
		}
	}
	_, err := c.check(1, other)
	if err == nil || !strings.Contains(err.Error(), "first repetition") {
		t.Fatalf("seed 2 output checked as seed 1: err = %v, want a reproducibility failure", err)
	}
	if c.attempted != 3 || c.failed != 1 {
		t.Fatalf("attempted/failed = %d/%d, want 3/1", c.attempted, c.failed)
	}
}

func TestAuxOutputAboveOracleBandFails(t *testing.T) {
	w := streamcluster.New()
	c := testChecker(t, false, w, 1, 2, 3)
	out, _ := w.RunSTATS(5, testSize, testOptions(t, "aux"))
	d := out.Distance(c.oracle)
	if d > c.bandHi {
		t.Fatalf("unperturbed output already outside the band: %g > %g", d, c.bandHi)
	}
	if _, err := c.check(5, out); err != nil {
		t.Fatal(err)
	}
	// The same output with its oracle distance pushed just past the band,
	// under a fresh seed so that only the band check applies.
	_, err := c.check(6, shifted{out, c.bandHi - d + 1e-9})
	if err == nil || !strings.Contains(err.Error(), "band") {
		t.Fatalf("perturbed output: err = %v, want a band failure", err)
	}
	if c.failed != 1 {
		t.Fatalf("failed = %d, want 1", c.failed)
	}
}

// TestBandToleranceIsRecorded checks that the band comes from the
// tolerance recorded in settings.json, read independently here, and from
// the reference originals alone: no speculative output moves it.
func TestBandToleranceIsRecorded(t *testing.T) {
	raw, err := os.ReadFile("settings.json")
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		BandTolerance *float64 `json:"band_tolerance"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil || rec.BandTolerance == nil {
		t.Fatalf("settings.json has no band_tolerance (err %v)", err)
	}
	w := streamcluster.New()
	seeds := []uint64{1, 2, 3}
	c := testChecker(t, false, w, seeds...)
	hi := 0.0
	for _, seed := range seeds {
		if d := w.RunOriginal(seed, testSize).Distance(c.oracle); d > hi {
			hi = d
		}
	}
	want := hi * (1 + *rec.BandTolerance)
	if c.bandHi != want {
		t.Fatalf("band upper edge %g, want max reference distance %g * (1 + %g) = %g", c.bandHi, hi, *rec.BandTolerance, want)
	}
	out, _ := w.RunSTATS(1, testSize, testOptions(t, "aux"))
	if _, err := c.check(1, shifted{out, 1e6}); err == nil {
		t.Fatal("an output far outside the band passed")
	}
	if c.bandHi != want {
		t.Fatalf("band moved to %g after a check", c.bandHi)
	}
}

func TestSettingsNameEveryWorkload(t *testing.T) {
	s, err := loadSettings()
	if err != nil {
		t.Fatal(err)
	}
	for _, ws := range s.Workloads {
		if _, err := ws.program(); err != nil {
			t.Errorf("%s: %v", ws.Name, err)
		}
		so, err := s.specOptions(ws)
		if err != nil {
			t.Errorf("%s: %v", ws.Name, err)
		}
		if want := ws.Protocol == "reservations"; (so.Protocol == core.ProtocolReservations) != want {
			t.Errorf("%s: protocol %v from %q", ws.Name, so.Protocol, ws.Protocol)
		}
	}
	if _, err := s.lookup("no-such-workload"); err == nil {
		t.Error("lookup of an unknown workload succeeded")
	}
}
