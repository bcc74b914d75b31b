package harness

import (
	"strings"
	"testing"
)

func TestExploreQuick(t *testing.T) {
	schedules, replayEvery := 2, 1
	if raceEnabled {
		// Gate-serialized runs magnify race instrumentation; one schedule
		// per row keeps the package inside the test timeout while still
		// exercising every row end to end.
		schedules, replayEvery = 1, 2
	}
	e := NewEnv(true)
	rows, err := ExploreRun(e, ExploreConfig{
		SchedulesPerRow: schedules, ReplayEvery: replayEvery, DumpDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 14 {
		t.Fatalf("expected six workloads under both protocols plus synthetic fault rows, got %d", len(rows))
	}
	sawSynthetic, sawResv, sawSynthResv := false, false, false
	for _, r := range rows {
		if r.Failures != 0 {
			t.Errorf("%s: %d schedules broke the output contract", r.Name, r.Failures)
		}
		if r.Schedules != schedules {
			t.Errorf("%s: ran %d schedules, want %d", r.Name, r.Schedules, schedules)
		}
		if want := (schedules + replayEvery - 1) / replayEvery; r.Replays != want {
			t.Errorf("%s: verified %d replays, want %d", r.Name, r.Replays, want)
		}
		if r.Stalls != 0 {
			t.Errorf("%s: %d stall force-admissions (unwrapped blocking op)", r.Name, r.Stalls)
		}
		if r.Distinct < 1 || r.Distinct > r.Schedules {
			t.Errorf("%s: distinct=%d out of range", r.Name, r.Distinct)
		}
		if strings.HasPrefix(r.Name, "synthetic ") {
			sawSynthetic = true
		}
		if strings.HasSuffix(r.Name, "(resv)") {
			sawResv = true
		}
		if strings.HasPrefix(r.Name, "synthetic reservations") {
			sawSynthResv = true
		}
	}
	if !sawSynthetic {
		t.Error("no synthetic fault-injection rows")
	}
	if !sawResv || !sawSynthResv {
		t.Errorf("missing reservation rows: workload=%v synthetic=%v", sawResv, sawSynthResv)
	}

	// The table renders from the rows this campaign produced.
	tb, err := exploreTable(rows)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"Explore", "schedules", "failures", "distinct interleavings"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

// TestExploreTableRenders checks the table's totals and its failure
// verdict on fixed rows, without running a campaign.
func TestExploreTableRenders(t *testing.T) {
	rows := []ExploreRow{
		{Name: "a", Schedules: 3, Distinct: 2},
		{Name: "b", Schedules: 4, Distinct: 4, Failures: 1},
	}
	tb, err := exploreTable(rows)
	if err == nil || !strings.Contains(err.Error(), "1 schedule(s) broke the output contract") {
		t.Fatalf("want the failing row reported, got %v", err)
	}
	var sb strings.Builder
	tb.Render(&sb)
	if out := sb.String(); !strings.Contains(out, "7 schedules explored (6 distinct interleavings), 1 contract failures") {
		t.Errorf("rendered table has wrong totals:\n%s", out)
	}
}
