package bench

import (
	"strings"
	"testing"
)

// TestScalingSmokeSingleGrid drives the whole sweep machinery — bar
// computation, both variants, iterations-to-quality extraction, the
// two-level-beats-one-level gate and the dropout phase — through a
// single 8×8 grid point, so the short suite exercises every contract
// of runScaling without the full three-grid sweep (which the
// convergence property suite runs in non-short mode).
func TestScalingSmokeSingleGrid(t *testing.T) {
	if raceEnabled {
		t.Skip("minutes of instrumented FFT compute under -race; logic covered by the non-race suite")
	}
	env, err := NewEnv(ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	res, err := env.runScaling(func(s string) { lines = append(lines, s) }, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 {
		t.Fatalf("%d points, want 1", len(res.Points))
	}
	p := res.Points[0]
	if p.Tiles != 8 {
		t.Fatalf("grid point %+v, want 8×8 at tile 64", p)
	}
	if p.TwoLevelIters >= p.OneLevelIters {
		t.Fatalf("two-level %d iters not below one-level %d", p.TwoLevelIters, p.OneLevelIters)
	}
	if res.IterationsToQuality() != float64(p.TwoLevelIters) {
		t.Fatalf("IterationsToQuality %v != last point %d", res.IterationsToQuality(), p.TwoLevelIters)
	}
	d := res.Dropout
	if d.SolvesSkipped == 0 || d.Rate <= 0 {
		t.Fatalf("dropout phase did no work: %+v", d)
	}
	if res.DroppedRate() != d.Rate {
		t.Fatalf("DroppedRate %v != %v", res.DroppedRate(), d.Rate)
	}
	if d.MaskRMS > scalingStages*scalingDropTol {
		t.Fatalf("dropout mask RMS %g beyond %d×tol", d.MaskRMS, scalingStages)
	}
	if len(lines) == 0 || !strings.Contains(lines[0], "scaling / 8×8") {
		t.Fatalf("progress lines %q", lines)
	}

	var sb strings.Builder
	if err := res.Render().Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	if tab := sb.String(); !strings.Contains(tab, "8×8") || !strings.Contains(tab, "drop") {
		t.Fatalf("rendered table missing rows:\n%s", tab)
	}
}
