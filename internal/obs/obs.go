// Package obs is the runtime observability layer: a lock-free speculation
// event tracer and a registry of atomically-updated metrics, cheap enough
// to leave enabled on a serving system.
//
// The paper's evaluation (§5, Fig. 5, Table 1) depends on seeing what the
// speculator did — which groups speculated, which validations matched, how
// many redos preceded each abort — and related work on execution replay
// shows a low-overhead event log is the prerequisite for debugging and
// tuning nondeterministic parallel executions. This package supplies that
// substrate for the whole stack:
//
//   - Tracer: per-lane bounded ring buffers of timestamped Events. Writers
//     never take a lock (per-slot sequence words make concurrent emit and
//     Snapshot safe); a full ring overwrites its oldest records, so memory
//     stays bounded no matter how long the runtime runs. Snapshot merges
//     the lanes into one time-ordered log.
//
//   - Registry: named Counters, Gauges and log-scale Histograms backed by
//     plain atomics, with a deterministic plain-text exposition format
//     (WriteText) in the style every metrics scraper understands.
//
//   - Observer: the pre-registered instrument bundle the engine
//     (internal/core) and the scheduler (internal/pool) write into.
//     Every consumer hook sits behind a nil check: a nil *Observer,
//     *Tracer, *Counter or *Histogram is a no-op, so disabled
//     observability costs approximately one branch on the hot path.
//
// Event schema: every event carries a monotonic timestamp (nanoseconds
// since the Tracer's epoch), the emitting lane, a kind, the group index it
// concerns (or -1), and one kind-specific argument (input index, redo
// attempt, queue depth, squashed input count). Scheduler events
// (EvSteal/EvLocalHit/EvTaskFinish) use the lane as the worker id; engine
// events key on Group and use the lane only as a shard hint.
package obs

// Observer bundles the tracer and the typed instruments the runtime
// writes. Emission sites guard on a nil *Observer, so observability is a
// per-run opt-in with a one-branch disabled cost.
type Observer struct {
	// Tracer receives the speculation event log. Never nil on an
	// Observer built by NewObserver.
	Tracer *Tracer
	// Reg is the registry all the instruments below are registered in;
	// WriteText on it exposes everything at once.
	Reg *Registry

	// GroupsStarted and GroupsFinished count group executions entering
	// and leaving the engine's group runner (a squashed group still
	// finishes).
	GroupsStarted  *Counter
	GroupsFinished *Counter
	// AuxProduced counts auxiliary-code executions that produced a
	// speculative start state.
	AuxProduced *Counter
	// Matches, Mismatches, Redos, Aborts and Squashes count validation
	// outcomes: accepted boundaries, first-try rejections, original
	// re-executions, aborted boundaries, and groups squashed by an
	// abort.
	Matches    *Counter
	Mismatches *Counter
	Redos      *Counter
	Aborts     *Counter
	Squashes   *Counter
	// FallbackInputs counts inputs reprocessed sequentially after an
	// abort.
	FallbackInputs *Counter
	// SpecCommittedInputs counts inputs whose outputs were committed
	// from a speculative (group > 0) execution — the numerator of the
	// telemetry layer's fallback-rate denominator.
	SpecCommittedInputs *Counter
	// PanickedGroups counts speculative groups squashed because user
	// code panicked on their lane; the panic was contained and the
	// group's inputs reprocessed sequentially.
	PanickedGroups *Counter
	// GroupTimeouts counts speculative groups squashed because their
	// lane exceeded the configured per-group deadline.
	GroupTimeouts *Counter
	// BreakerDenied counts runs whose speculation was suppressed by an
	// open circuit breaker.
	BreakerDenied *Counter

	// Reserves, ReserveConflicts and Commits count the deterministic-
	// reservations protocol's phases: slot reservations written, inputs
	// that lost a slot to a lower index and carried forward, and inputs
	// whose outputs the coordinator committed.
	Reserves         *Counter
	ReserveConflicts *Counter
	Commits          *Counter

	// FootprintViolations counts state slots the FootprintCheck oracle
	// caught being touched outside a declared reservation footprint.
	FootprintViolations *Counter

	// LaneCPUCommitted and LaneCPUWasted accumulate the lane CPU-time
	// (wall-clock nanoseconds measured at lane boundaries) whose results
	// were committed vs discarded — the wasted-work split the paper's
	// speculation trade lives on. Their sum over a run equals
	// Stats.LaneCPUCommittedNS + Stats.LaneCPUWastedNS.
	LaneCPUCommitted *Counter
	LaneCPUWasted    *Counter

	// Steals, LocalHits and TasksDone count the scheduler's dispatches:
	// cross-worker steals, contention-free local pops, and completed
	// tasks.
	Steals    *Counter
	LocalHits *Counter
	TasksDone *Counter

	// ValidationLatencyNS observes the wall-clock nanoseconds each group
	// boundary took to resolve (including redo re-executions).
	ValidationLatencyNS *Histogram
	// RedosPerValidation observes how many re-executions each boundary
	// consumed; its Sum equals the Redos counter and its Count the
	// number of validations.
	RedosPerValidation *Histogram
	// RoundsPerGroup observes how many reserve/check/commit rounds each
	// reservations group needed; its Sum equals Stats.Rounds and its
	// Count the number of groups the protocol processed.
	RoundsPerGroup *Histogram
	// QueueDepth observes the scheduler's per-deque depth after every
	// push; QueueDepthPeak tracks the lifetime maximum.
	QueueDepth     *Histogram
	QueueDepthPeak *Gauge
}

// NewObserver builds an Observer with a Tracer of the given lane count and
// per-lane capacity (zero values pick defaults) and a fresh Registry with
// every engine and scheduler instrument pre-registered, HELP strings
// attached, and the tracer's emit/drop totals exposed as function-backed
// counters so ring overwrite is visible on every scrape.
func NewObserver(lanes, perLaneCap int) *Observer {
	reg := NewRegistry()
	tr := NewTracer(lanes, perLaneCap)
	o := &Observer{
		Tracer: tr,
		Reg:    reg,

		GroupsStarted:  reg.Counter("stats_groups_started_total"),
		GroupsFinished: reg.Counter("stats_groups_finished_total"),
		AuxProduced:    reg.Counter("stats_aux_produced_total"),
		Matches:        reg.Counter("stats_validation_match_total"),
		Mismatches:     reg.Counter("stats_validation_mismatch_total"),
		Redos:          reg.Counter("stats_redos_total"),
		Aborts:         reg.Counter("stats_aborts_total"),
		Squashes:       reg.Counter("stats_squashed_groups_total"),
		FallbackInputs: reg.Counter("stats_fallback_inputs_total"),
		SpecCommittedInputs: reg.Counter(
			"stats_speculative_commit_inputs_total"),
		PanickedGroups: reg.Counter("stats_panicked_groups_total"),
		GroupTimeouts:  reg.Counter("stats_group_timeouts_total"),
		BreakerDenied:  reg.Counter("stats_breaker_denied_runs_total"),

		Reserves:         reg.Counter("stats_reserves_total"),
		ReserveConflicts: reg.Counter("stats_reserve_conflicts_total"),
		Commits:          reg.Counter("stats_reservation_commits_total"),

		FootprintViolations: reg.Counter("stats_footprint_violations_total"),

		LaneCPUCommitted: reg.Counter("stats_lane_cpu_committed_ns_total"),
		LaneCPUWasted:    reg.Counter("stats_lane_cpu_wasted_ns_total"),

		Steals:    reg.Counter("sched_steals_total"),
		LocalHits: reg.Counter("sched_local_hits_total"),
		TasksDone: reg.Counter("sched_tasks_done_total"),

		ValidationLatencyNS: reg.Histogram("stats_validation_latency_ns"),
		RedosPerValidation:  reg.Histogram("stats_redos_per_validation"),
		RoundsPerGroup:      reg.Histogram("stats_rounds_per_group"),
		QueueDepth:          reg.Histogram("sched_queue_depth"),
		QueueDepthPeak:      reg.Gauge("sched_queue_depth_peak"),
	}
	reg.CounterFunc("trace_events_emitted_total", tr.Emitted)
	reg.CounterFunc("trace_events_dropped_total", tr.Dropped)
	for name, help := range map[string]string{
		"stats_groups_started_total":            "group executions entering the engine's group runner",
		"stats_groups_finished_total":           "group executions returning (squashed groups included)",
		"stats_aux_produced_total":              "auxiliary-code executions that produced a speculative start state",
		"stats_validation_match_total":          "group boundaries whose speculative state was accepted",
		"stats_validation_mismatch_total":       "group boundaries whose first validation attempt rejected the speculative state",
		"stats_redos_total":                     "original-producer re-executions",
		"stats_aborts_total":                    "boundaries that exhausted their redo budget and aborted speculation",
		"stats_squashed_groups_total":           "groups squashed by an abort",
		"stats_fallback_inputs_total":           "inputs reprocessed sequentially after an abort",
		"stats_speculative_commit_inputs_total": "inputs committed from a speculative (group > 0) execution",
		"stats_panicked_groups_total":           "speculative groups squashed by a contained user-code panic",
		"stats_group_timeouts_total":            "speculative groups squashed by the per-group deadline",
		"stats_breaker_denied_runs_total":       "runs whose speculation was suppressed by an open circuit breaker",
		"stats_reserves_total":                  "slot reservations written by the deterministic-reservations protocol",
		"stats_reserve_conflicts_total":         "inputs that lost a reserved slot to a lower index and carried forward",
		"stats_reservation_commits_total":       "inputs committed by the reservations coordinator",
		"stats_footprint_violations_total":      "state slots touched outside a declared reservation footprint (FootprintCheck oracle)",
		"stats_lane_cpu_committed_ns_total":     "lane CPU nanoseconds whose results were committed",
		"stats_lane_cpu_wasted_ns_total":        "lane CPU nanoseconds whose results were discarded (aborts, squashes, timeouts, lost reservations)",
		"stats_rounds_per_group":                "reserve/check/commit rounds needed per reservations group",
		"sched_steals_total":                    "cross-worker task dispatches (work stealing)",
		"sched_local_hits_total":                "contention-free local-deque task dispatches",
		"sched_tasks_done_total":                "tasks completed by the scheduler",
		"stats_validation_latency_ns":           "wall-clock nanoseconds each group boundary took to resolve",
		"stats_redos_per_validation":            "re-executions consumed per group boundary",
		"sched_queue_depth":                     "per-deque depth observed after each push",
		"sched_queue_depth_peak":                "lifetime maximum single-deque depth",
		"trace_events_emitted_total":            "events ever emitted into the tracer's rings",
		"trace_events_dropped_total":            "events evicted by ring wrap-around (bounded-memory loss)",
	} {
		reg.SetHelp(name, help)
	}
	return o
}
