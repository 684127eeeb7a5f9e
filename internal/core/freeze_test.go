package core

import (
	"fmt"
	"testing"

	"mgsilt/internal/grid"
)

// TestStageSequenceFreeze pins every flow's engine stage schedule: the
// exact sequence of (name, iter, total) the pipeline executes, the flow
// name and stage totals its checkpoints carry, and the Result.Timeline
// the service serialises. These sequences are the refactoring contract
// for internal/pipeline — a change here means old checkpoints no longer
// resume bit-identically and job-status timelines change shape, so it
// must be deliberate, not incidental.
func TestStageSequenceFreeze(t *testing.T) {
	sim := testSim(t)
	target := testClipTarget(t, 7)

	cases := []struct {
		name   string // subtest name; empty → flow
		flow   string // engine flow name == checkpoint Flow
		mutate func(*Config)
		run    func(Config, *grid.Mat) (*Result, error)
		stages []string // engine stages + the trailing evaluate "inspect"
	}{
		{
			flow: "multigrid-schwarz",
			run:  MultigridSchwarz,
			// iters=4 schedule: CoarseScale=2 → one coarse level,
			// FineIters=2 over FineStages=2, RefineIters=1.
			stages: []string{"coarse 1/1", "fine 1/2", "fine 2/2", "refine 1/1", "inspect 1/1"},
		},
		{
			name:   "multigrid-schwarz/coarse-correct",
			flow:   "multigrid-schwarz",
			mutate: func(c *Config) { c.CoarseCorrect = true },
			run:    MultigridSchwarz,
			// Two-level Schwarz interleaves one correction between each
			// pair of fine stages: FineStages=2 → one coarse-correct.
			stages: []string{"coarse 1/1", "fine 1/2", "coarse-correct 1/1", "fine 2/2", "refine 1/1", "inspect 1/1"},
		},
		{
			flow:   "divide-and-conquer",
			run:    DivideAndConquer,
			stages: []string{"solve 1/1", "inspect 1/1"},
		},
		{
			flow:   "full-chip",
			run:    FullChip,
			stages: []string{"solve 1/1", "inspect 1/1"},
		},
		{
			flow: "stitch-and-heal",
			run:  StitchAndHeal,
			// 3×3 tiling on the 128 px clip → 4 stitch lines to heal.
			stages: []string{"solve 1/1", "heal 1/4", "heal 2/4", "heal 3/4", "heal 4/4", "inspect 1/1"},
		},
	}
	for _, tc := range cases {
		name := tc.name
		if name == "" {
			name = tc.flow
		}
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(t, sim, 4)
			cfg.Solver = identitySolver{}
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}

			var done, progress []string
			var cps []Checkpoint
			cfg.StageDone = func(st StageTiming) {
				done = append(done, fmt.Sprintf("%s %d/%d", st.Name, st.Iter, st.Total))
				if st.Wall < 0 {
					t.Errorf("stage %s has negative wall time", st.Name)
				}
			}
			cfg.Progress = func(name string, iter, total int) {
				progress = append(progress, fmt.Sprintf("%s %d/%d", name, iter, total))
			}
			cfg.Checkpoint = func(ck Checkpoint) { cps = append(cps, ck) }

			res, err := tc.run(cfg, target)
			if err != nil {
				t.Fatal(err)
			}

			// StageDone and Progress fire once per stage, in schedule
			// order, with identical labels.
			if got := fmt.Sprint(done); got != fmt.Sprint(tc.stages) {
				t.Fatalf("stage sequence changed:\n got  %v\n want %v", done, tc.stages)
			}
			if got := fmt.Sprint(progress); got != fmt.Sprint(tc.stages) {
				t.Fatalf("progress sequence changed:\n got  %v\n want %v", progress, tc.stages)
			}

			// Result.Timeline mirrors the executed schedule.
			if len(res.Timeline) != len(tc.stages) {
				t.Fatalf("timeline has %d entries, want %d", len(res.Timeline), len(tc.stages))
			}
			for i, st := range res.Timeline {
				if got := fmt.Sprintf("%s %d/%d", st.Name, st.Iter, st.Total); got != tc.stages[i] {
					t.Fatalf("timeline[%d] = %q, want %q", i, got, tc.stages[i])
				}
			}

			// One checkpoint per engine stage ("inspect" runs outside the
			// engine), numbered 1..total, all carrying the flow name.
			engineStages := len(tc.stages) - 1
			if len(cps) != engineStages {
				t.Fatalf("%d checkpoints, want %d", len(cps), engineStages)
			}
			for i, ck := range cps {
				if ck.Flow != tc.flow || ck.Stage != i+1 || ck.Total != engineStages {
					t.Fatalf("checkpoint %d = {%s %d/%d}, want {%s %d/%d}",
						i, ck.Flow, ck.Stage, ck.Total, tc.flow, i+1, engineStages)
				}
				if ck.Mask == nil || ck.Mask.H != testClip || ck.Mask.W != testClip {
					t.Fatalf("checkpoint %d mask malformed", i)
				}
			}
		})
	}
}
