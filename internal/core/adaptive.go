package core

// Adaptive execution extends the paper's model along its own future-work
// axis (§6: "this work is the first step in exploiting state dependences"):
// instead of a group cardinality fixed at compile time by the autotuner,
// the runtime adjusts it online from observed validation outcomes. The
// input vector is processed in chunks; each chunk runs under the §3.1
// model with the current group size, and the controller widens groups
// while speculation keeps succeeding (less validation overhead) and
// narrows them after failures (smaller squash windows).

// AdaptiveOptions configures RunAdaptive.
type AdaptiveOptions struct {
	// Options is the base configuration; its GroupSize seeds the
	// controller.
	Options
	// MinGroup and MaxGroup bound the controller (defaults 2 and 64).
	MinGroup int
	MaxGroup int
	// ChunkGroups is how many groups form one adaptation chunk
	// (default 4).
	ChunkGroups int
}

// AdaptiveStats extends Stats with the controller's trajectory.
type AdaptiveStats struct {
	Stats
	// GroupSizes is the group cardinality used by each chunk.
	GroupSizes []int
	// Chunks is the number of chunks processed.
	Chunks int
}

func (o AdaptiveOptions) withDefaults() AdaptiveOptions {
	if o.MinGroup < 1 {
		o.MinGroup = 2
	}
	if o.MaxGroup < o.MinGroup {
		o.MaxGroup = 64
	}
	if o.ChunkGroups < 1 {
		o.ChunkGroups = 4
	}
	if o.GroupSize < o.MinGroup {
		o.GroupSize = o.MinGroup
	}
	if o.GroupSize > o.MaxGroup {
		o.GroupSize = o.MaxGroup
	}
	return o
}

// RunAdaptive processes inputs chunk by chunk, adapting the group size
// between chunks: after a chunk whose speculation fully succeeded the
// group doubles (capped), after any abort it halves (floored), and on
// partial success (redos but no abort) it holds. Outputs are identical in
// structure to Run's: in input order, quality-preserved.
func (d *Dependence[I, S, O]) RunAdaptive(inputs []I, initial S, opts AdaptiveOptions) ([]O, S, AdaptiveStats) {
	opts = opts.withDefaults()
	var ast AdaptiveStats
	state := d.ops.Clone(initial)
	outs := make([]O, 0, len(inputs))
	group := opts.GroupSize
	pos := 0
	chunkSeed := opts.Seed

	for pos < len(inputs) {
		chunkLen := group * opts.ChunkGroups
		if chunkLen > len(inputs)-pos {
			chunkLen = len(inputs) - pos
		}
		o := opts.Options
		o.GroupSize = group
		o.Seed = chunkSeed
		chunkSeed = chunkSeed*6364136223846793005 + 1442695040888963407

		chunkOuts, final, st := d.Run(inputs[pos:pos+chunkLen], state, o)
		outs = append(outs, chunkOuts...)
		state = final
		pos += chunkLen
		accumulate(&ast.Stats, st)
		ast.GroupSizes = append(ast.GroupSizes, group)
		ast.Chunks++

		// Adapt.
		switch {
		case st.Aborts > 0:
			group /= 2
			if group < opts.MinGroup {
				group = opts.MinGroup
			}
		case st.Matches > 0 && st.Redos == 0:
			group *= 2
			if group > opts.MaxGroup {
				group = opts.MaxGroup
			}
		}
	}
	ast.Inputs = len(inputs)
	return outs, state, ast
}

// accumulate folds one run's statistics into the aggregate: Inputs is set
// by the caller, QueueDepthPeak keeps the maximum, Panics concatenate, and
// every other field adds.
func accumulate(agg *Stats, st Stats) {
	agg.Groups += st.Groups
	agg.Matches += st.Matches
	agg.Redos += st.Redos
	agg.Aborts += st.Aborts
	agg.SpeculativeCommits += st.SpeculativeCommits
	agg.SquashedInputs += st.SquashedInputs
	agg.FallbackInputs += st.FallbackInputs
	agg.Invocations += st.Invocations
	agg.UsefulInvocations += st.UsefulInvocations
	agg.AuxCalls += st.AuxCalls
	agg.AuxInputs += st.AuxInputs
	agg.PanickedGroups += st.PanickedGroups
	agg.Panics = append(agg.Panics, st.Panics...)
	agg.TimedOutGroups += st.TimedOutGroups
	agg.BreakerDenied += st.BreakerDenied
	agg.Rounds += st.Rounds
	agg.ReservationConflicts += st.ReservationConflicts
	agg.FootprintViolations += st.FootprintViolations
	agg.LaneCPUCommittedNS += st.LaneCPUCommittedNS
	agg.LaneCPUWastedNS += st.LaneCPUWastedNS
	agg.Steals += st.Steals
	agg.LocalHits += st.LocalHits
	if st.QueueDepthPeak > agg.QueueDepthPeak {
		agg.QueueDepthPeak = st.QueueDepthPeak
	}
}
