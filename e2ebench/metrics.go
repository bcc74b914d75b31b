package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond the reported tail.
const tailBeyond = 10

// tailOf returns the highest order statistic with tailBeyond samples above
// it, and the percentile that is. With too few samples it is the maximum.
func tailOf(ds []time.Duration) (time.Duration, float64) {
	s := slices.Clone(ds)
	slices.Sort(s)
	i := len(s) - 1 - tailBeyond
	if i < 0 {
		i = len(s) - 1
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}

func median[T time.Duration | float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the per-layer metrics that core.Stats and the
// observer's tracer give, each the median over the traced repetitions'
// observed speculative runs.
func layerMetrics(runs []sample, workers int) map[string]metric {
	m := map[string]metric{}
	per := func(name, unit string, f func(s sample) float64) {
		xs := make([]float64, len(runs))
		for i, s := range runs {
			xs[i] = f(s)
		}
		m[name] = metric{median(xs), unit}
	}
	count := func(name string, f func(s sample) int64) {
		per(name, "count", func(s sample) float64 { return float64(f(s)) })
	}
	count("core.invocations", func(s sample) int64 { return s.st.Invocations })
	count("core.redos", func(s sample) int64 { return int64(s.st.Redos) })
	count("core.matches", func(s sample) int64 { return int64(s.st.Matches) })
	count("core.aborts", func(s sample) int64 { return int64(s.st.Aborts) })
	count("core.squashed_inputs", func(s sample) int64 { return int64(s.st.SquashedInputs) })
	count("core.fallback_inputs", func(s sample) int64 { return int64(s.st.FallbackInputs) })
	count("core.aux_inputs", func(s sample) int64 { return int64(s.st.AuxInputs) })
	count("core.rounds", func(s sample) int64 { return int64(s.st.Rounds) })
	count("core.reservation_conflicts", func(s sample) int64 { return int64(s.st.ReservationConflicts) })
	count("pool.steals", func(s sample) int64 { return s.st.Steals })
	count("pool.local_hits", func(s sample) int64 { return s.st.LocalHits })
	count("pool.queue_depth_peak", func(s sample) int64 { return s.st.QueueDepthPeak })
	count("obs.events_per_run", func(s sample) int64 { return s.events })
	count("obs.dropped_events", func(s sample) int64 { return s.dropped })
	per("core.useful_frac", "frac", func(s sample) float64 {
		return frac(float64(s.st.UsefulInvocations), float64(s.st.Invocations))
	})
	per("core.commits_per_round", "count", func(s sample) float64 {
		return frac(float64(s.st.Inputs), float64(s.st.Rounds))
	})
	per("core.lane_cpu_committed_ms", "ms", func(s sample) float64 { return ms(time.Duration(s.st.LaneCPUCommittedNS)) })
	per("core.lane_cpu_wasted_ms", "ms", func(s sample) float64 { return ms(time.Duration(s.st.LaneCPUWastedNS)) })
	per("core.waste_frac", "frac", func(s sample) float64 {
		return frac(float64(s.st.LaneCPUWastedNS), float64(s.st.LaneCPUCommittedNS+s.st.LaneCPUWastedNS))
	})
	per("core.lane_busy_frac", "frac", func(s sample) float64 {
		return frac(float64(s.st.LaneCPUCommittedNS+s.st.LaneCPUWastedNS), float64(s.wall())*float64(workers))
	})
	per("pool.steal_frac", "frac", func(s sample) float64 {
		return frac(float64(s.st.Steals), float64(s.st.Steals+s.st.LocalHits))
	})
	return m
}

// printMetrics prints every metric by name with its unit, one per line.
func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
