package fdtd

// Crash recovery for the parallel build.  RunWithRecovery executes the
// archetype program in checkpointed segments: each segment runs the SPMD
// solver for CheckpointEvery steps starting from the last checkpoint,
// gathers the advanced state to the host, and saves it atomically.  When
// a segment dies — an injected fault.Crash, a panic, a deadlock — the
// driver reloads the last good checkpoint (falling back to the retained
// previous file if the newest is damaged) and re-runs the segment.
//
// Theorem 1 makes this scheme exactly testable: the solver network is
// deterministic, so a run that crashes, recovers, and resumes must be
// bitwise identical to the same segmented run left uninterrupted.  The
// near fields and the probe series are furthermore bitwise identical to
// the plain single-segment run (field updates are local and segment
// boundaries do not touch them); only the far-field accumulators are
// combined in a different — still deterministic — order, because each
// segment reduces its own contribution (the same reordering caveat that
// already distinguishes the parallel far field from the sequential one).

import (
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/obs"
)

// RecoveryOptions configures RunWithRecovery.
type RecoveryOptions struct {
	// P is the process count of the parallel solver.
	P int
	// Opt carries the archetype options, including a fault injector.
	Opt Options
	// CheckpointEvery is the segment length in time steps.  Zero or
	// negative means a single segment covering the whole run.
	CheckpointEvery int
	// Path, when non-empty, is where checkpoints are saved (atomically,
	// retaining the previous good file at CheckpointPrevPath).  After a
	// crash the driver reloads from this file rather than trusting its
	// in-memory state.  When empty, checkpoints live only in memory.
	Path string
	// Resume starts from the checkpoint at Path (with fallback to the
	// retained previous file) instead of from step 0.
	Resume bool
	// MaxRestarts bounds how many crashes the driver absorbs before
	// giving up; 0 means a sensible default (3).
	MaxRestarts int
}

// RecoveryReport describes what a RunWithRecovery call did.
type RecoveryReport struct {
	Result *Result
	// Crashes lists the injected crashes that were absorbed.
	Crashes []*fault.Crash
	// Restarts counts segment re-runs after a failure.
	Restarts int
	// ResumedFrom is the step the run started at (non-zero when Resume
	// found a checkpoint).
	ResumedFrom int
	// FellBack reports that a load used the retained previous
	// checkpoint because the newest file was missing or damaged.
	FellBack bool
	// CheckpointsSaved counts successful saves to Path.
	CheckpointsSaved int
}

// RunWithRecovery runs the parallel (mesh.Par) archetype build of spec
// under crash recovery and returns the final result plus a report of
// the faults it survived.  Failures that are not injected crashes are
// returned after the restart budget would not help (deadlocks and real
// panics are deterministic, so they are not retried).
func RunWithRecovery(spec Spec, ro RecoveryOptions) (*RecoveryReport, error) {
	topo, err := decompose(spec, ro.P, 1)
	if err != nil {
		return nil, err
	}
	every := ro.CheckpointEvery
	if every <= 0 || every > spec.Steps {
		every = spec.Steps
	}
	if every == 0 {
		every = 1 // zero-step run: the loop below just never executes
	}
	if spec.Boundary == BoundaryMur1 && every < spec.Steps {
		// The Mur state (previous-step boundary planes) is not part of
		// the checkpoint, matching ResumeSequential's refusal.
		return nil, fmt.Errorf("fdtd: mid-run checkpoints of Mur-boundary runs are not supported")
	}
	maxRestarts := ro.MaxRestarts
	if maxRestarts == 0 {
		maxRestarts = 3
	}

	// Checkpoint save/load runs host-side between segments; charge it to
	// rank 0's lane so the run report shows what recovery costs.
	col := ro.Opt.Mesh.Obs

	rep := &RecoveryReport{}
	var ckpt *Checkpoint
	if ro.Resume && ro.Path != "" {
		col.Begin(0, obs.PhaseCheckpoint, "checkpoint-load")
		c, fellBack, err := LoadCheckpointWithFallback(ro.Path, spec)
		col.End(0)
		if err != nil {
			return nil, err
		}
		if spec.Boundary == BoundaryMur1 && c.StepsDone > 0 {
			return nil, errors.New("fdtd: resuming Mur-boundary runs mid-stream is not supported")
		}
		ckpt = c
		rep.FellBack = fellBack
		rep.ResumedFrom = c.StepsDone
	} else {
		c, err := NewCheckpoint(spec)
		if err != nil {
			return nil, err
		}
		ckpt = c
	}

	for ckpt.StepsDone < spec.Steps {
		until := ckpt.StepsDone + every
		if until > spec.Steps {
			until = spec.Steps
		}
		seg, err := runSegment(spec, topo, ro.Opt, ckpt, until)
		if err != nil {
			crash, injected := fault.AsCrash(err)
			if !injected || rep.Restarts >= maxRestarts {
				return rep, err
			}
			rep.Crashes = append(rep.Crashes, crash)
			rep.Restarts++
			// Recover: reload the last good checkpoint.  Going through
			// the file (when there is one) exercises the same path a
			// fresh process would take after a real crash.
			if ro.Path != "" && rep.CheckpointsSaved > 0 {
				col.Begin(0, obs.PhaseCheckpoint, "checkpoint-load")
				c, fellBack, lerr := LoadCheckpointWithFallback(ro.Path, spec)
				col.End(0)
				if lerr != nil {
					return rep, fmt.Errorf("fdtd: recovery reload failed: %w", lerr)
				}
				ckpt = c
				rep.FellBack = rep.FellBack || fellBack
			}
			continue
		}
		mergeSegment(ckpt, seg)
		if ro.Path != "" {
			col.Begin(0, obs.PhaseCheckpoint, "checkpoint-save")
			err := SaveCheckpoint(ro.Path, ckpt)
			col.End(0)
			if err != nil {
				return rep, err
			}
			rep.CheckpointsSaved++
		}
	}

	rep.Result = ckpt.result()
	return rep, nil
}

// runSegment advances a checkpoint by one segment on the parallel
// runtime and returns the host's view of the segment: the gathered
// fields at step `until`, plus the segment's probe samples, far-field
// contributions, and work, as deltas for mergeSegment.
func runSegment(spec Spec, topo *mesh.Topo2D, opt Options, start *Checkpoint, until int) (*Checkpoint, error) {
	results, err := mesh.Run(topo.P(), mesh.Par, opt.Mesh, func(c *mesh.Comm) *Result {
		return spmd(c, spec, topo, opt, start, until)
	})
	if err != nil {
		return nil, err
	}
	return results[0].checkpoint(until), nil
}

// mergeSegment folds one segment's host view into the running
// checkpoint.  The gathered fields replace the old state; the probe
// samples append; the far-field contributions and the work add (work is
// a sum of integers, so the addition is exact).
func mergeSegment(ckpt, seg *Checkpoint) {
	ckpt.StepsDone = seg.StepsDone
	ckpt.Ex, ckpt.Ey, ckpt.Ez = seg.Ex, seg.Ey, seg.Ez
	ckpt.Hx, ckpt.Hy, ckpt.Hz = seg.Hx, seg.Hy, seg.Hz
	ckpt.Probe = append(ckpt.Probe, seg.Probe...)
	ckpt.FarA = addInto(ckpt.FarA, seg.FarA)
	ckpt.FarF = addInto(ckpt.FarF, seg.FarF)
	ckpt.Work += seg.Work
}

// addInto adds src into dst elementwise, growing dst if needed (a
// checkpoint of a truncated run carries shorter far-field vectors than
// a full-run segment).
func addInto(dst, src []float64) []float64 {
	if len(src) > len(dst) {
		dst = append(dst, make([]float64, len(src)-len(dst))...)
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// ResumeArchetype continues a checkpointed run to completion on the
// parallel runtime, in one segment, and returns the final result.  It
// is the parallel counterpart of ResumeSequential.
func ResumeArchetype(c *Checkpoint, p int, opt Options) (*Result, error) {
	spec := c.Spec
	topo, err := decompose(spec, p, 1)
	if err != nil {
		return nil, err
	}
	if spec.Boundary == BoundaryMur1 && c.StepsDone > 0 {
		return nil, errors.New("fdtd: resuming Mur-boundary runs mid-stream is not supported")
	}
	seg, err := runSegment(spec, topo, opt, c, spec.Steps)
	if err != nil {
		return nil, err
	}
	final := &Checkpoint{
		Spec: spec, StepsDone: c.StepsDone,
		Probe: append([]float64(nil), c.Probe...),
		FarA:  append([]float64(nil), c.FarA...),
		FarF:  append([]float64(nil), c.FarF...),
		Work:  c.Work,
	}
	mergeSegment(final, seg)
	return final.result(), nil
}
