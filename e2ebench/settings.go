package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
	"repro/internal/workload/registry"
)

// settingsJSON is the benchmark's recorded configuration. Everything a run
// may not choose for itself lives here: the engine knobs, how many run
// seeds a run cycles through, how often set-up is repeated, the oracle-band
// tolerance of the checker, and each workload's program, size and protocol.
//
//go:embed settings.json
var settingsJSON []byte

type settings struct {
	Engine struct {
		Group, Window, Redo, Rollback, Workers int
	} `json:"engine"`
	SeedsPerRun int `json:"seeds_per_run"`
	// ReferenceSeeds is how many of the run seeds (the first ones) get a
	// reference original in set-up; their oracle distances fix the band.
	ReferenceSeeds int `json:"reference_seeds"`
	SetupReps      int `json:"setup_reps"`
	// BandTolerance widens the reference originals' oracle-distance band
	// upwards: an aux output fails when its distance to the oracle exceeds
	// max(reference distances) * (1 + BandTolerance).
	BandTolerance float64        `json:"band_tolerance"`
	Workloads     []workloadSpec `json:"workloads"`
}

type workloadSpec struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Size     int    `json:"size"`
	Protocol string `json:"protocol"`
}

func loadSettings() (settings, error) {
	var s settings
	if err := json.Unmarshal(settingsJSON, &s); err != nil {
		return s, fmt.Errorf("parse settings.json: %w", err)
	}
	if s.SeedsPerRun < 1 || s.ReferenceSeeds < 1 || s.ReferenceSeeds > s.SeedsPerRun ||
		s.SetupReps < 1 || s.BandTolerance < 0 || s.Engine.Workers < 1 {
		return s, fmt.Errorf("settings.json: want 1 <= reference_seeds <= seeds_per_run, setup_reps and engine.workers >= 1, band_tolerance >= 0")
	}
	return s, nil
}

func (s settings) lookup(name string) (workloadSpec, error) {
	for _, w := range s.Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// specOptions lowers the recorded engine knobs to the workload layer's
// options for one speculative run under the spec's protocol.
func (s settings) specOptions(ws workloadSpec) (workload.SpecOptions, error) {
	proto, ok := core.ParseProtocol(ws.Protocol)
	if !ok {
		return workload.SpecOptions{}, fmt.Errorf("workload %s: unknown protocol %q", ws.Name, ws.Protocol)
	}
	return workload.SpecOptions{
		UseAux:    true,
		Protocol:  proto,
		GroupSize: s.Engine.Group,
		Window:    s.Engine.Window,
		RedoMax:   s.Engine.Redo,
		Rollback:  s.Engine.Rollback,
		Workers:   s.Engine.Workers,
	}, nil
}

func (ws workloadSpec) program() (workload.Workload, error) {
	return registry.ByName(ws.Workload)
}
