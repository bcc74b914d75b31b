package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span names: one per call the benchmark makes into a layer, plus the
// repetition that parents them. A repetition's self time is the
// benchmark's own: the collections before each call and its bookkeeping.
const (
	spanRep          = "rep"
	spanOriginal     = "workload.RunOriginal"
	spanObserved     = "core.RunSTATS/observed"
	spanUnobserved   = "core.RunSTATS/unobserved"
	spanConventional = "core.RunSTATS/conventional"
	spanCheck        = "bench.check"
)

// span is one timed call, recorded from the benchmark's own code around
// the call into a layer. Spans of one repetition share Rep; every span but
// the repetition's own has Parent spanRep. StolenNS is the hypervisor's
// steal over the span (see stolen); busy time excludes it.
type span struct {
	Rep      int    `json:"rep"`
	Name     string `json:"name"`
	Parent   string `json:"parent,omitempty"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	StolenNS int64  `json:"stolen_ns"`
}

func (s span) busy() int64 { return max(s.EndNS-s.StartNS-s.StolenNS, 0) }

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now(), spans: make([]span, 0, 4096)} }

func (l *spanLog) add(rep int, name string, start, end time.Time, stolen time.Duration) {
	parent := spanRep
	if name == spanRep {
		parent = ""
	}
	l.spans = append(l.spans, span{Rep: rep, Name: name, Parent: parent,
		StartNS: start.Sub(l.t0).Nanoseconds(), EndNS: end.Sub(l.t0).Nanoseconds(),
		StolenNS: stolen.Nanoseconds()})
}

// selfTimes returns, per span name, each repetition's self time: the
// span's busy time minus the busy time of its children. Children of one
// repetition run one after another, so their times add up.
func (l *spanLog) selfTimes() map[string][]time.Duration {
	children := map[int]int64{}
	for _, s := range l.spans {
		if s.Parent == spanRep {
			children[s.Rep] += s.busy()
		}
	}
	out := map[string][]time.Duration{}
	for _, s := range l.spans {
		d := s.busy()
		if s.Name == spanRep {
			d = max(d-children[s.Rep], 0)
		}
		out[s.Name] = append(out[s.Name], time.Duration(d))
	}
	return out
}

// layerRow is one line of the per-layer self-time table: a span name's
// median and total self time and its share of all repetitions' time.
type layerRow struct {
	Name       string  `json:"name"`
	Spans      int     `json:"spans"`
	MedianMS   float64 `json:"median_self_ms"`
	TotalMS    float64 `json:"total_self_ms"`
	ShareOfRep float64 `json:"share_of_rep"`
}

func (l *spanLog) layerTable() []layerRow {
	self := l.selfTimes()
	var repTotal time.Duration
	for _, s := range l.spans {
		if s.Name == spanRep {
			repTotal += time.Duration(s.busy())
		}
	}
	rows := make([]layerRow, 0, len(self))
	for name, ds := range self {
		var total time.Duration
		for _, d := range ds {
			total += d
		}
		share := 0.0
		if repTotal > 0 {
			share = float64(total) / float64(repTotal)
		}
		rows = append(rows, layerRow{Name: name, Spans: len(ds), MedianMS: ms(median(ds)), TotalMS: ms(total), ShareOfRep: share})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].TotalMS > rows[j].TotalMS })
	return rows
}

// write dumps the spans and the self-time table as JSON to path.
func (l *spanLog) write(path string, header map[string]any) error {
	doc := map[string]any{"spans": l.spans, "self_time": l.layerTable()}
	for k, v := range header {
		doc[k] = v
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
