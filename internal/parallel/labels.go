package parallel

import (
	"context"
	"runtime/pprof"
)

// Label keys attached to goroutines executing pipeline work. CPU
// profiles (the CI-uploaded pprof artefacts) group samples by these,
// attributing the time a stage's own goroutines spend — its flow, the
// device dispatchers it starts and everything they run on themselves —
// to that stage.
const (
	// LabelStage is the pipeline stage name ("coarse", "fine",
	// "coarse-correct", "refine", "solve", "heal", "inspect").
	LabelStage = "ilt_stage"
	// LabelSite is the call site owning the work — the flow name for
	// engine stages ("multigrid-schwarz", ...).
	LabelSite = "ilt_site"
)

// WithLabels runs fn with pprof goroutine labels (LabelStage=stage,
// LabelSite=site) installed on the calling goroutine and on every
// goroutine fn starts, the device dispatchers among them. Labels nest:
// an inner WithLabels shadows the outer one for fn's duration.
//
// The pool's helpers are resident goroutines, not children of whoever
// hands them a section, so they inherit nothing: the samples of the
// share of a section that ran on a helper are unlabelled. (The runtime
// offers no way to read a goroutine's labels without the context that
// set them, and Do and DoChunks take none.) In a profile, the labelled
// samples of a stage are its callers' share; the unlabelled remainder
// under parallel.(*helper).run is the helpers', for all stages together.
func WithLabels(ctx context.Context, stage, site string, fn func(context.Context)) {
	pprof.Do(ctx, pprof.Labels(LabelStage, stage, LabelSite, site), fn)
}
