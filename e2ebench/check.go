package main

import (
	"fmt"

	"repro/internal/workload"
)

// checker holds the output checks behind fail_frac. A repetition fails
// when any check that applies to its protocol fails:
//
//   - aux: the output differs (Distance != 0) from the first repetition of
//     the same seed: a speculative run is reproducible per seed;
//   - reservations: the output differs from the engine's own UseAux=false
//     run of the same protocol and seed (the explore contract);
//   - aux: the output's oracle distance lies above the band of the
//     reference originals, max(reference distances) * (1 + tolerance),
//     where the tolerance comes from settings.json and never from a run.
type checker struct {
	reservations bool
	oracle       workload.Result
	bandHi       float64
	refs         map[uint64]workload.Result

	attempted, failed int
}

// newChecker builds the checker for one workload run. refOriginals are the
// reference RunOriginal outputs that fix the oracle band.
func newChecker(s settings, reservations bool, oracle workload.Result, refOriginals []workload.Result) *checker {
	hi := 0.0
	for _, r := range refOriginals {
		if d := r.Distance(oracle); d > hi {
			hi = d
		}
	}
	return &checker{
		reservations: reservations,
		oracle:       oracle,
		bandHi:       hi * (1 + s.BandTolerance),
		refs:         make(map[uint64]workload.Result),
	}
}

// setReference records the engine-sequential output a reservations run of
// seed must reproduce.
func (c *checker) setReference(seed uint64, out workload.Result) {
	c.refs[seed] = out
}

// check runs every check that applies to one repetition's output, counts
// the repetition as attempted and, on any failure, as failed. It returns
// the output's distance to the oracle, which the quality metric uses.
func (c *checker) check(seed uint64, out workload.Result) (float64, error) {
	c.attempted++
	d, err := c.verify(seed, out)
	if err != nil {
		c.failed++
	}
	return d, err
}

func (c *checker) verify(seed uint64, out workload.Result) (float64, error) {
	oracleDist := out.Distance(c.oracle)
	ref, ok := c.refs[seed]
	switch {
	case !ok && c.reservations:
		return oracleDist, fmt.Errorf("seed %d: no engine-sequential reference", seed)
	case !ok:
		c.refs[seed] = out
	case out.Distance(ref) != 0:
		what := "the first repetition of the same seed"
		if c.reservations {
			what = "the engine's UseAux=false run"
		}
		return oracleDist, fmt.Errorf("seed %d: output differs from %s (distance %g)", seed, what, out.Distance(ref))
	}
	if !c.reservations && !(oracleDist <= c.bandHi) {
		return oracleDist, fmt.Errorf("seed %d: oracle distance %g above the reference band %g", seed, oracleDist, c.bandHi)
	}
	return oracleDist, nil
}
