package pipeline

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"mgsilt/internal/grid"
)

// addStage returns a stage adding v to every pixel — a cheap, easily
// verified layout transformation.
func addStage(name string, iter, total int, v float64) Stage {
	return Stage{Name: name, Iter: iter, Total: total,
		Run: func(_ context.Context, m *grid.Mat) (*grid.Mat, error) {
			out := m.Clone()
			for i := range out.Data {
				out.Data[i] += v
			}
			return out, nil
		}}
}

func testPipe(stages ...Stage) *Pipeline {
	return &Pipeline{Flow: "test-flow", Clip: 4, Stages: stages}
}

func TestRunThreadsLayoutThroughStages(t *testing.T) {
	p := testPipe(
		addStage("a", 1, 2, 1),
		addStage("a", 2, 2, 2),
		addStage("b", 1, 1, 4),
	)
	out, timeline, err := p.Run(grid.NewMat(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Data {
		if v != 7 {
			t.Fatalf("stage composition broken: got %v, want 7", v)
		}
	}
	if len(timeline) != 3 {
		t.Fatalf("timeline has %d entries, want 3", len(timeline))
	}
	want := []StageTiming{{Name: "a", Iter: 1, Total: 2}, {Name: "a", Iter: 2, Total: 2}, {Name: "b", Iter: 1, Total: 1}}
	for i, w := range want {
		got := timeline[i]
		if got.Name != w.Name || got.Iter != w.Iter || got.Total != w.Total {
			t.Fatalf("timeline[%d] = %+v, want %s %d/%d", i, got, w.Name, w.Iter, w.Total)
		}
		if got.Wall < 0 {
			t.Fatalf("timeline[%d] has negative wall time", i)
		}
	}
}

func TestHooksFireInOrder(t *testing.T) {
	var events []string
	p := testPipe(addStage("x", 1, 2, 1), addStage("x", 2, 2, 1))
	p.Progress = func(name string, iter, total int) {
		events = append(events, fmt.Sprintf("progress %s %d/%d", name, iter, total))
	}
	p.StageDone = func(st StageTiming) {
		events = append(events, fmt.Sprintf("done %s %d/%d", st.Name, st.Iter, st.Total))
	}
	var cps []Checkpoint
	p.Checkpoint = func(ck Checkpoint) {
		events = append(events, fmt.Sprintf("ckpt %d/%d", ck.Stage, ck.Total))
		cps = append(cps, ck)
	}
	if _, _, err := p.Run(grid.NewMat(4, 4)); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"progress x 1/2", "done x 1/2", "ckpt 1/2",
		"progress x 2/2", "done x 2/2", "ckpt 2/2",
	}
	if len(events) != len(want) {
		t.Fatalf("events %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d = %q, want %q", i, events[i], want[i])
		}
	}
	for i, ck := range cps {
		if ck.Flow != "test-flow" || ck.Mask == nil {
			t.Fatalf("checkpoint %d malformed: %+v", i, ck)
		}
	}
}

func TestCheckpointMaskIsPrivateClone(t *testing.T) {
	p := testPipe(addStage("x", 1, 2, 1), addStage("x", 2, 2, 1))
	var first *grid.Mat
	p.Checkpoint = func(ck Checkpoint) {
		if first == nil {
			first = ck.Mask
			// A hostile hook scribbling on its snapshot must not corrupt
			// the running flow.
			for i := range first.Data {
				first.Data[i] = -99
			}
		}
	}
	out, _, err := p.Run(grid.NewMat(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Data {
		if v != 2 {
			t.Fatalf("checkpoint hook corrupted the flow: got %v, want 2", v)
		}
	}
}

func TestResumeSkipsCompletedStages(t *testing.T) {
	var runs []string
	counting := func(name string, iter, total int) Stage {
		return Stage{Name: name, Iter: iter, Total: total,
			Run: func(_ context.Context, m *grid.Mat) (*grid.Mat, error) {
				runs = append(runs, fmt.Sprintf("%s %d", name, iter))
				out := m.Clone()
				for i := range out.Data {
					out.Data[i]++
				}
				return out, nil
			}}
	}
	build := func() *Pipeline {
		return testPipe(counting("a", 1, 3), counting("a", 2, 3), counting("a", 3, 3))
	}

	var cps []Checkpoint
	p := build()
	p.Checkpoint = func(ck Checkpoint) { cps = append(cps, ck) }
	full, _, err := p.Run(grid.NewMat(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) != 3 {
		t.Fatalf("%d checkpoints, want 3", len(cps))
	}

	for _, ck := range cps {
		runs = nil
		r := build()
		ck := ck
		r.Resume = &ck
		out, timeline, err := r.Run(grid.NewMat(4, 4))
		if err != nil {
			t.Fatalf("resume from %d: %v", ck.Stage, err)
		}
		if !out.Equal(full) {
			t.Fatalf("resume from stage %d diverged", ck.Stage)
		}
		if len(runs) != 3-ck.Stage {
			t.Fatalf("resume from stage %d executed %d stages, want %d (%v)", ck.Stage, len(runs), 3-ck.Stage, runs)
		}
		if len(timeline) != 3-ck.Stage {
			t.Fatalf("resume timeline covers %d stages, want %d", len(timeline), 3-ck.Stage)
		}
	}
}

func TestResumeValidation(t *testing.T) {
	mk := func(flow string, stage, total int, mask *grid.Mat) *Checkpoint {
		return &Checkpoint{Flow: flow, Stage: stage, Total: total, Mask: mask}
	}
	bad := []*Checkpoint{
		mk("other-flow", 1, 1, grid.NewMat(4, 4)),
		mk("test-flow", 0, 1, grid.NewMat(4, 4)),
		mk("test-flow", 2, 1, grid.NewMat(4, 4)),
		mk("test-flow", 1, 1, grid.NewMat(8, 8)),
		mk("test-flow", 1, 1, nil),
	}
	for i, ck := range bad {
		p := testPipe(addStage("x", 1, 1, 1))
		p.Resume = ck
		if _, _, err := p.Run(grid.NewMat(4, 4)); err == nil {
			t.Fatalf("bad checkpoint %d accepted: %+v", i, ck)
		}
	}
}

func TestStageErrorStopsPipeline(t *testing.T) {
	boom := errors.New("boom")
	ran := false
	p := testPipe(
		addStage("a", 1, 1, 1),
		Stage{Name: "b", Iter: 1, Total: 1, Run: func(_ context.Context, m *grid.Mat) (*grid.Mat, error) {
			return nil, boom
		}},
		Stage{Name: "c", Iter: 1, Total: 1, Run: func(_ context.Context, m *grid.Mat) (*grid.Mat, error) {
			ran = true
			return m, nil
		}},
	)
	out, timeline, err := p.Run(grid.NewMat(4, 4))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if out != nil || ran {
		t.Fatal("pipeline continued past a failed stage")
	}
	if len(timeline) != 1 {
		t.Fatalf("timeline %v should cover only the completed stage", timeline)
	}
}

func TestNilStageResultRejected(t *testing.T) {
	p := testPipe(Stage{Name: "x", Iter: 1, Total: 1, Run: func(_ context.Context, m *grid.Mat) (*grid.Mat, error) {
		return nil, nil
	}})
	if _, _, err := p.Run(grid.NewMat(4, 4)); err == nil {
		t.Fatal("nil stage result must be an error")
	}
}

func TestContextCancellationBetweenStages(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := testPipe(
		Stage{Name: "a", Iter: 1, Total: 1, Run: func(_ context.Context, m *grid.Mat) (*grid.Mat, error) {
			cancel() // cancelled mid-flow: the next stage must not start
			return m, nil
		}},
		Stage{Name: "b", Iter: 1, Total: 1, Run: func(_ context.Context, m *grid.Mat) (*grid.Mat, error) {
			t.Fatal("stage ran after cancellation")
			return m, nil
		}},
	)
	p.Ctx = ctx
	if _, _, err := p.Run(grid.NewMat(4, 4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestGenuinePanicPropagates(t *testing.T) {
	p := testPipe(Stage{Name: "x", Iter: 1, Total: 1, Run: func(_ context.Context, m *grid.Mat) (*grid.Mat, error) {
		panic("genuine bug")
	}})
	defer func() {
		if r := recover(); r != "genuine bug" {
			t.Fatalf("recovered %v, want the genuine panic", r)
		}
	}()
	p.Run(grid.NewMat(4, 4))
	t.Fatal("unreachable")
}

func TestLazyCheckpointClone(t *testing.T) {
	// Without a Checkpoint hook the engine must not clone the layout:
	// the stage's returned matrix is threaded through by identity.
	var fromStage *grid.Mat
	p := testPipe(Stage{Name: "x", Iter: 1, Total: 1, Run: func(_ context.Context, m *grid.Mat) (*grid.Mat, error) {
		fromStage = grid.NewMat(4, 4)
		return fromStage, nil
	}})
	out, _, err := p.Run(grid.NewMat(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if out != fromStage {
		t.Fatal("engine copied the layout with no checkpoint hook installed")
	}
}
