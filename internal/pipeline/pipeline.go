// Package pipeline is the stage-pipeline engine shared by every core
// flow: a flow declares an ordered list of named Stages (pure layout →
// layout transformations) and the engine uniformly owns everything
// cross-cutting that the flows used to hand-roll per copy —
//
//   - stage sequencing and context cancellation between stages,
//   - resume-skip from a Checkpoint (stages up to and including the
//     checkpointed stage are skipped, the layout is seeded from the
//     snapshot),
//   - Progress and Checkpoint emission (the checkpoint mask is cloned
//     lazily, only when a hook is actually installed),
//   - per-stage wall-time capture (the StageTiming timeline surfaced
//     in the job service's status JSON and Prometheus histogram).
//
// Because the engine is the only stage loop in the system, every flow
// built on it is checkpoint/resumable and uniformly instrumented by
// construction. Staged-schedule ILT pipelines are the norm in scaled
// implementations, which is why the stage abstraction is first-class
// here rather than an implementation detail of one flow.
package pipeline

import (
	"context"
	"fmt"
	"time"

	"mgsilt/internal/grid"
	"mgsilt/internal/parallel"
)

// Stage is one resumable unit of a flow: a named transformation of the
// working layout. Iter/Total describe the stage's position within its
// phase (e.g. fine Schwarz stage 2 of 2) and are what Progress hooks
// and the stage timeline report; the engine's own stage numbering (the
// checkpoint stage) is the 1-based index in the pipeline's stage list.
type Stage struct {
	// Name is the phase name ("coarse", "fine", "refine", "solve",
	// "heal"); stable across releases, it keys the Prometheus
	// ilt_stage_duration_seconds histogram.
	Name string
	// Iter is the 1-based unit within the phase, Total the phase's
	// unit count.
	Iter, Total int
	// Run transforms the working layout. It may mutate m in place and
	// return it, or return a fresh matrix; the engine only threads the
	// returned value forward. It must not retain m past its return.
	Run func(ctx context.Context, m *grid.Mat) (*grid.Mat, error)
}

// StageTiming is one executed stage's timeline entry.
type StageTiming struct {
	Name        string
	Iter, Total int
	Wall        time.Duration
}

// Pipeline executes an ordered stage list for one flow.
type Pipeline struct {
	// Flow names the flow ("multigrid-schwarz", ...); it is recorded
	// in every emitted Checkpoint and validated on resume.
	Flow string
	// Clip is the expected layout side, validated against resume
	// checkpoints.
	Clip int
	// Stages is the ordered schedule. Stage k (1-based) corresponds to
	// checkpoint stage k.
	Stages []Stage

	// Ctx carries the flow's deadline/cancellation; it is checked
	// between stages and passed to every Stage.Run. nil means
	// context.Background().
	Ctx context.Context
	// Progress, when non-nil, is invoked at the start of each executed
	// stage with the stage's phase coordinates.
	Progress func(name string, iter, total int)
	// Checkpoint, when non-nil, is invoked after each completed stage
	// with a snapshot sufficient to resume from it. The mask is cloned
	// only when this hook is installed — flows that do not checkpoint
	// pay nothing.
	Checkpoint func(Checkpoint)
	// StageDone, when non-nil, is invoked after each executed stage
	// with its measured wall time (the same entry appended to the
	// returned timeline). The job service feeds its per-stage latency
	// histogram and status timeline from this hook.
	StageDone func(StageTiming)
	// Resume, when non-nil, seeds the layout from the checkpoint and
	// skips stages 1..Resume.Stage. The checkpoint must come from the
	// same flow and geometry (validated); the stage schedule is the
	// caller's contract.
	Resume *Checkpoint
}

// Run executes the pipeline on the initial layout and returns the
// final layout plus the timeline of the stages that actually executed
// (resume-skipped stages do not appear). On error the layout is nil
// and the timeline covers the stages completed before the failure.
func (p *Pipeline) Run(init *grid.Mat) (*grid.Mat, []StageTiming, error) {
	total := len(p.Stages)
	m := init
	resumeFrom := 0
	if p.Resume != nil {
		if err := p.Resume.ValidFor(p.Flow, p.Clip, total); err != nil {
			return nil, nil, err
		}
		resumeFrom = p.Resume.Stage
		m = p.Resume.Mask.Clone()
	}
	ctx := p.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	var timeline []StageTiming
	for i, st := range p.Stages {
		if i+1 <= resumeFrom {
			continue // already completed by the checkpointed run
		}
		if err := ctx.Err(); err != nil {
			return nil, timeline, err
		}
		if p.Progress != nil {
			p.Progress(st.Name, st.Iter, st.Total)
		}
		start := time.Now()
		next, err := runStage(ctx, p.Flow, st, m)
		if err != nil {
			return nil, timeline, err
		}
		if next == nil {
			return nil, timeline, fmt.Errorf("pipeline: %s stage %q %d/%d returned no layout", p.Flow, st.Name, st.Iter, st.Total)
		}
		m = next
		t := StageTiming{Name: st.Name, Iter: st.Iter, Total: st.Total, Wall: time.Since(start)}
		timeline = append(timeline, t)
		if p.StageDone != nil {
			p.StageDone(t)
		}
		if p.Checkpoint != nil {
			// The clone is deliberately inside the guard: snapshotting a
			// full layout is O(clip²) and must cost nothing when nobody
			// listens.
			p.Checkpoint(Checkpoint{Flow: p.Flow, Stage: i + 1, Total: total, Mask: m.Clone()})
		}
	}
	return m, timeline, nil
}

// runStage executes one stage body under pprof goroutine labels (stage
// name, flow site) so CPU profiles attribute samples to pipeline
// stages; the labels inherit into every goroutine the stage starts, but
// not into the resident parallel-pool helpers its sections borrow
// (parallel.WithLabels).
func runStage(ctx context.Context, flow string, st Stage, m *grid.Mat) (out *grid.Mat, err error) {
	parallel.WithLabels(ctx, st.Name, flow, func(ctx context.Context) {
		out, err = st.Run(ctx, m)
	})
	return out, err
}
