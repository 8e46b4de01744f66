// Package core implements the scAtteR and scAtteR++ pipelines: the five
// services (primary, sift, encoding, lsh, matching), their stateful/
// stateless interaction semantics, sidecar queueing, replica load
// balancing, and the client frame sources. The same decision logic runs
// in two harnesses: the deterministic simulation testbed used by the
// experiment suite (this package + internal/sim) and the real UDP/RPC
// runtime (internal/agent) whose processors execute the actual vision
// algorithms.
package core

import (
	"fmt"
	"time"

	"github.com/edge-mar/scatter/internal/wire"
)

// ServiceProfile is the calibrated compute model of one pipeline service
// (DESIGN.md §5). CPUTime and GPUTime are reference durations on E1; a
// machine scales them by its speed factors. GPU services first run their
// CPU phase (pre/post-processing, transfers) and then their GPU phase.
type ServiceProfile struct {
	Step    wire.Step
	CPUTime time.Duration
	GPUTime time.Duration
	// BaselineMem is the resident memory of one deployed instance
	// (container image + loaded models).
	BaselineMem int64
	// StateBytes is the in-memory footprint of one held frame state
	// (sift only): extracted descriptors plus the retained DoG pyramid
	// data matching correlates against.
	StateBytes int64
	// FetchServe is the time sift spends serving one state-fetch request
	// from matching (sift only).
	FetchServe time.Duration
}

// Total returns the reference processing latency (CPU + GPU phases).
func (p ServiceProfile) Total() time.Duration { return p.CPUTime + p.GPUTime }

// UsesGPU reports whether the service has a GPU phase. In scAtteR all
// services except primary are GPU-dependent.
func (p ServiceProfile) UsesGPU() bool { return p.GPUTime > 0 }

// Validate reports profile errors.
func (p ServiceProfile) Validate() error {
	if p.CPUTime < 0 || p.GPUTime < 0 || p.FetchServe < 0 {
		return fmt.Errorf("core: negative duration in %s profile", p.Step)
	}
	if p.Total() == 0 {
		return fmt.Errorf("core: %s profile has zero compute time", p.Step)
	}
	if p.BaselineMem < 0 || p.StateBytes < 0 {
		return fmt.Errorf("core: negative memory in %s profile", p.Step)
	}
	return nil
}

// Profiles holds one profile per pipeline step.
type Profiles [wire.NumSteps]ServiceProfile

// DefaultProfiles returns the calibration used by every experiment:
// single-client E2E ≈ 40 ms on edge, primary throughput cap ≈ 240 FPS,
// sift the heaviest stage (DESIGN.md §5).
func DefaultProfiles() Profiles {
	return Profiles{
		wire.StepPrimary: {
			Step:        wire.StepPrimary,
			CPUTime:     4 * time.Millisecond, // 240 FPS cap (Fig. 8)
			BaselineMem: 400 << 20,
		},
		wire.StepSIFT: {
			Step:        wire.StepSIFT,
			CPUTime:     3 * time.Millisecond,
			GPUTime:     11 * time.Millisecond, // heaviest service
			BaselineMem: 1200 << 20,
			StateBytes:  24 << 20, // held descriptors + retained pyramid
			FetchServe:  time.Millisecond,
		},
		wire.StepEncoding: {
			Step:        wire.StepEncoding,
			CPUTime:     2500 * time.Microsecond,
			GPUTime:     5 * time.Millisecond,
			BaselineMem: 800 << 20,
		},
		wire.StepLSH: {
			Step:        wire.StepLSH,
			CPUTime:     1500 * time.Microsecond,
			GPUTime:     3 * time.Millisecond,
			BaselineMem: 600 << 20,
		},
		wire.StepMatching: {
			Step:        wire.StepMatching,
			CPUTime:     3 * time.Millisecond,
			GPUTime:     6 * time.Millisecond,
			BaselineMem: 1000 << 20,
		},
	}
}

// Validate checks every profile and that steps are self-consistent.
func (ps Profiles) Validate() error {
	for i, p := range ps {
		if int(p.Step) != i {
			return fmt.Errorf("core: profile %d labelled %s", i, p.Step)
		}
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}
