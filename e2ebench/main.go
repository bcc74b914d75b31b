// Command e2ebench is the repository's end-to-end benchmark. It drives one
// of four paper workloads through the real engine (internal/workload ->
// internal/core -> internal/pool, with the always-on internal/obs observer
// attached) in one process, times the speculative run against the plain
// program, checks every output, and prints the metrics as one JSON line.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash e2ebench/run.sh --workload fine-aux --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 is the separate traced
// run that times each layer from outside and prints the per-layer metrics.
// See README.md for the workloads, metrics and recorded baseline facts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/workload"
)

// spanDir is where a traced run writes its span dump, relative to the
// directory the benchmark runs from.
const spanDir = ".bench_build/spans"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name from settings.json")
	seed := fs.Uint64("seed", 1, "workload seed; every repetition's run seed derives from it")
	seconds := fs.Float64("seconds", 10, "how long the timed repetitions run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "e2ebench: want --trace 0|1, --seconds > 0 and no positional arguments")
		return 2
	}
	b, err := newBench(*name, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 2
	}
	res, err := b.measure(stdout, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// bench is one workload run: its program, the run seeds, the observer
// shared by all its speculative runs, and the set-up products: the oracle
// and the checker.
type bench struct {
	s     settings
	ws    workloadSpec
	w     workload.Workload
	so    workload.SpecOptions
	seed  uint64
	seeds []uint64
	ob    *obs.Observer

	oracle  workload.Result
	checker *checker
}

func newBench(name string, seed uint64) (*bench, error) {
	s, err := loadSettings()
	if err != nil {
		return nil, err
	}
	ws, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	w, err := ws.program()
	if err != nil {
		return nil, err
	}
	so, err := s.specOptions(ws)
	if err != nil {
		return nil, err
	}
	b := &bench{s: s, ws: ws, w: w, so: so, seed: seed,
		seeds: runSeeds(seed, s.SeedsPerRun),
		ob:    obs.NewObserver(s.Engine.Workers+1, 0)}
	b.so.Obs = b.ob
	return b, nil
}

// runSeeds derives the run (nondeterminism) seeds of one benchmark run
// from its workload seed. The inputs are fixed per size by each workload.
func runSeeds(seed uint64, n int) []uint64 {
	r := rng.New(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}

func (b *bench) reservations() bool { return b.so.Protocol == core.ProtocolReservations }

// unobserved is the speculative run without the observer attached.
func (b *bench) unobserved() workload.SpecOptions {
	so := b.so
	so.Obs = nil
	return so
}

// conventional is the engine run with speculation off, under the same
// protocol: the reference a reservations output must equal.
func (b *bench) conventional() workload.SpecOptions {
	so := b.unobserved()
	so.UseAux = false
	return so
}

// setup computes the oracle, the reference originals of the first
// ReferenceSeeds run seeds that fix the oracle band, the reservations
// references of every run seed, and warms the speculative path once.
func (b *bench) setup() {
	size := b.ws.Size
	b.oracle = b.w.RunOracle(size)
	refs := make([]workload.Result, b.s.ReferenceSeeds)
	for i := range refs {
		refs[i] = b.w.RunOriginal(b.seeds[i], size)
	}
	b.checker = newChecker(b.s, b.reservations(), b.oracle, refs)
	if b.reservations() {
		for _, seed := range b.seeds {
			out, _ := b.w.RunSTATS(seed, size, b.conventional())
			b.checker.setReference(seed, out)
		}
	}
	b.w.RunSTATS(b.seeds[0], size, b.so)
}

// sample is one timed call into a layer. busy is its wall time less the
// hypervisor's steal over it (see stolen).
type sample struct {
	start, end time.Time
	busy       time.Duration
	cpu        time.Duration
	alloc      uint64
	out        workload.Result
	st         core.Stats
	events     int64
	dropped    int64
}

func (s sample) wall() time.Duration { return s.end.Sub(s.start) }

// timeCall times fn with its CPU, steal and allocation.
func (b *bench) timeCall(fn func() (workload.Result, core.Stats)) sample {
	p0 := readProcStat()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ev0, dr0 := b.ob.Tracer.Emitted(), b.ob.Tracer.Dropped()
	c0 := processCPU()
	s := sample{start: time.Now()}
	s.out, s.st = fn()
	s.end = time.Now()
	s.cpu = processCPU() - c0
	runtime.ReadMemStats(&m1)
	s.busy = lessSteal(s.wall(), p0, readProcStat())
	s.alloc = m1.TotalAlloc - m0.TotalAlloc
	s.events, s.dropped = b.ob.Tracer.Emitted()-ev0, b.ob.Tracer.Dropped()-dr0
	return s
}

func (b *bench) original(seed uint64) sample {
	return b.timeCall(func() (workload.Result, core.Stats) {
		return b.w.RunOriginal(seed, b.ws.Size), core.Stats{}
	})
}

func (b *bench) speculative(seed uint64, so workload.SpecOptions) sample {
	return b.timeCall(func() (workload.Result, core.Stats) {
		return b.w.RunSTATS(seed, b.ws.Size, so)
	})
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs set-up SetupReps times, then the timed repetitions for d,
// and returns the end-to-end metrics, or with traced the per-layer ones.
func (b *bench) measure(out io.Writer, d time.Duration, traced bool) (result, error) {
	e := b.s.Engine
	fmt.Fprintf(out, "e2ebench: workload=%s program=%s size=%d protocol=%s G=%d k=%d R=%d W=%d workers=%d trace=%v\n",
		b.ws.Name, b.ws.Workload, b.ws.Size, b.ws.Protocol, e.Group, e.Window, e.Redo, e.Rollback, e.Workers, traced)
	fmt.Fprintf(out, "seeds: workload seed %d -> run seeds %v\n", b.seed, b.seeds)
	run0 := readProcStat()

	setups := make([]time.Duration, b.s.SetupReps)
	for i := range setups {
		runtime.GC()
		p0, t0 := readProcStat(), time.Now()
		b.setup()
		setups[i] = lessSteal(time.Since(t0), p0, readProcStat())
	}

	var m map[string]metric
	var err error
	if traced {
		m, err = b.tracedReps(out, d)
	} else {
		m, err = b.untracedReps(out, d)
	}
	if err != nil {
		return result{}, err
	}
	if !traced {
		m["setup_s"] = metric{median(setups).Seconds(), "s"}
	}
	fmt.Fprintf(out, "setup_s: median %.4f s of %v (steal excluded)\n", median(setups).Seconds(), setups)
	fmt.Fprintln(out, hostLine(run0, readProcStat()))
	c := b.checker
	fmt.Fprintf(out, "fail_frac: %g (%d failed of %d attempted)\n", float64(c.failed)/float64(c.attempted), c.failed, c.attempted)
	printMetrics(out, m)
	return result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}, nil
}

// failures prints the first few check failures of a run.
type failures struct {
	out io.Writer
	n   int
}

func (f *failures) report(err error) {
	if err == nil {
		return
	}
	if f.n < 5 {
		fmt.Fprintln(f.out, "check failed:", err)
	}
	f.n++
}

// untracedReps interleaves the original and the speculative program,
// alternating which goes first, and returns the end-to-end metrics. Garbage
// is collected before each repetition, outside the clock, so one
// repetition's garbage is not collected on the next one's clock.
func (b *bench) untracedReps(out io.Writer, d time.Duration) (map[string]metric, error) {
	var seq, wall, rawSeq, rawWall, cpu []time.Duration
	var alloc []float64
	q := quality{}
	fails := &failures{out: out}
	deadline := time.Now().Add(d)
	for r := 0; r < len(b.seeds) || time.Now().Before(deadline); r++ {
		seed := b.seeds[r%len(b.seeds)]
		runtime.GC()
		var o, s sample
		if r%2 == 0 {
			o, s = b.original(seed), b.speculative(seed, b.so)
		} else {
			s, o = b.speculative(seed, b.so), b.original(seed)
		}
		seq = append(seq, o.busy)
		wall = append(wall, s.busy)
		rawSeq = append(rawSeq, o.wall())
		rawWall = append(rawWall, s.wall())
		cpu = append(cpu, s.cpu)
		alloc = append(alloc, float64(s.alloc)/1e6)
		dist, err := b.checker.check(seed, s.out)
		fails.report(err)
		q.add(seed, func() float64 { return o.out.Distance(b.oracle) }, dist)
	}
	ratio, err := q.ratio()
	if err != nil {
		return nil, err
	}
	tail, pct := tailOf(wall)
	rawTail, _ := tailOf(rawWall)
	fmt.Fprintf(out, "wall_ms_tail: p%.1f of %d samples (%d beyond it)\n", pct, len(wall), tailBeyond)
	fmt.Fprintf(out, "with steal: wall_ms %.3f wall_ms_tail %.3f seq_ms %.3f\n", ms(median(rawWall)), ms(rawTail), ms(median(rawSeq)))
	c := b.checker
	return map[string]metric{
		"wall_ms":       {ms(median(wall)), "ms"},
		"wall_ms_tail":  {ms(tail), "ms"},
		"seq_ms":        {ms(median(seq)), "ms"},
		"speedup":       {float64(median(seq)) / float64(median(wall)), "x"},
		"cpu_ms":        {ms(median(cpu)), "ms"},
		"alloc_mb":      {median(alloc), "MB"},
		"quality_ratio": {ratio, "ratio"},
		"pass_frac":     {1 - float64(c.failed)/float64(c.attempted), "frac"},
	}, nil
}

// quality holds, per run seed, the oracle distances of the original's and
// the speculative output, taken on the seed's first repetition. Both are
// reproducible per seed, so the ratio repeats exactly for a workload seed.
type quality map[uint64][2]float64

func (q quality) add(seed uint64, orig func() float64, spec float64) {
	if _, ok := q[seed]; !ok {
		q[seed] = [2]float64{orig(), spec}
	}
}

// ratio is the median oracle distance of the speculative outputs divided
// by the same median for the originals, over the same seeds.
func (q quality) ratio() (float64, error) {
	var orig, spec []float64
	for _, d := range q {
		orig = append(orig, d[0])
		spec = append(spec, d[1])
	}
	den := median(orig)
	if !(den > 0) {
		return 0, errors.New("quality_ratio undefined: the originals' median oracle distance is not positive")
	}
	return median(spec) / den, nil
}

// tracedReps alternates traced and untraced repetitions. Each makes every
// call the per-layer metrics need: the original, the observed and the
// unobserved speculative run (in alternating order), the conventional
// engine run and the check. A traced repetition records a span around each
// call; an untraced one records none, and the two sets' observed wall times
// give the tracing overhead.
func (b *bench) tracedReps(out io.Writer, d time.Duration) (map[string]metric, error) {
	log := newSpanLog()
	var untracedObsW []time.Duration
	var stats []sample
	fails := &failures{out: out}
	valBase := b.ob.ValidationLatencyNS.Snapshot()
	deadline := time.Now().Add(d)
	for r := 0; r < 2 || time.Now().Before(deadline); r++ {
		seed := b.seeds[(r/2)%len(b.seeds)]
		traced := r%2 == 0
		repProc, repStart := readProcStat(), time.Now()
		rec := func(name string, start, end time.Time, stolen time.Duration) {
			if traced {
				log.add(r, name, start, end, stolen)
			}
		}
		// Collect before every call: the observed and unobserved runs
		// are compared, so neither may pay for the other's garbage.
		call := func(name string, fn func(uint64) sample) sample {
			runtime.GC()
			s := fn(seed)
			rec(name, s.start, s.end, s.wall()-s.busy)
			return s
		}
		call(spanOriginal, b.original)
		observed := func(seed uint64) sample { return b.speculative(seed, b.so) }
		unobserved := func(seed uint64) sample { return b.speculative(seed, b.unobserved()) }
		var s sample
		if (r/2)%2 == 0 {
			s = call(spanObserved, observed)
			call(spanUnobserved, unobserved)
		} else {
			call(spanUnobserved, unobserved)
			s = call(spanObserved, observed)
		}
		call(spanConventional, func(seed uint64) sample { return b.speculative(seed, b.conventional()) })
		t0 := time.Now()
		_, err := b.checker.check(seed, s.out)
		rec(spanCheck, t0, time.Now(), 0)
		fails.report(err)
		rec(spanRep, repStart, time.Now(), stolen(repProc, readProcStat()))
		if traced {
			s.out = nil // keep only the counts; outputs would grow the heap
			stats = append(stats, s)
		} else {
			untracedObsW = append(untracedObsW, s.busy)
		}
	}

	path := fmt.Sprintf("%s/spans-%s-seed%d.json", spanDir, b.ws.Name, b.seed)
	if err := log.write(path, map[string]any{"workload": b.ws.Name, "seed": b.seed, "run_seeds": b.seeds}); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans: %d written to %s; self time per repetition:\n", len(log.spans), path)
	for _, row := range log.layerTable() {
		fmt.Fprintf(out, "  %-28s median %9.3f ms  total %10.1f ms  %5.1f%% of reps (%d spans)\n",
			row.Name, row.MedianMS, row.TotalMS, 100*row.ShareOfRep, row.Spans)
	}

	self := log.selfTimes()
	m := layerMetrics(stats, b.s.Engine.Workers)
	m["workload.invocation_us"] = metric{float64(median(self[spanOriginal])) / 1e3 / float64(stats[0].st.Inputs), "us"}
	m["core.engine_seq_ms"] = metric{ms(median(self[spanConventional])), "ms"}
	m["obs.overhead_frac"] = metric{float64(median(self[spanObserved]))/float64(median(self[spanUnobserved])) - 1, "frac"}
	m["trace.overhead_frac"] = metric{float64(median(self[spanObserved]))/float64(median(untracedObsW)) - 1, "frac"}
	val := b.ob.ValidationLatencyNS.Snapshot().Sub(valBase)
	m["obs.validation_p50_us"] = metric{float64(val.Quantile(0.5)) / 1e3, "us"}
	m["obs.validation_p99_us"] = metric{float64(val.Quantile(0.99)) / 1e3, "us"}
	return m, nil
}
