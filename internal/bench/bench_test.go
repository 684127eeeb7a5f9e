package bench

import (
	"bytes"
	"strings"
	"testing"

	"mgsilt/internal/parallel"
)

// tinyScale keeps harness tests fast: the mechanics are identical at
// every scale.
func tinyScale() Scale {
	return Scale{Name: "tiny", N: 64, Clip: 128, Cases: 2, Iters: 6, Seed: 1000}
}

func tinyEnv(t *testing.T) *Env {
	t.Helper()
	env, err := NewEnv(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewEnv(t *testing.T) {
	env := tinyEnv(t)
	if env.Sim.N() != 64 {
		t.Fatalf("sim N %d", env.Sim.N())
	}
	if len(env.Clips) != 2 {
		t.Fatalf("clips %d", len(env.Clips))
	}
	cfg := env.BaseConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.ClipSize != 128 || cfg.BaselineIters != 6 {
		t.Fatalf("config %+v", cfg)
	}
}

func TestMethodsOrder(t *testing.T) {
	ms := Methods
	want := []string{"GLS-ILT", "Multi-level-ILT", "Full-chip", "Ours"}
	if len(ms) != len(want) {
		t.Fatalf("%d methods", len(ms))
	}
	for i, m := range ms {
		if m.Name != want[i] {
			t.Fatalf("method %d = %q want %q", i, m.Name, want[i])
		}
	}
}

func TestRunTable1AndRender(t *testing.T) {
	env := tinyEnv(t)
	var seen []string
	res, err := env.RunTable1(func(s string) { seen = append(seen, s) })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 2 || len(res.Cells) != 2 || len(res.Cells[0]) != 4 {
		t.Fatalf("shape: %d cases, %d rows", len(res.Cases), len(res.Cells))
	}
	if len(seen) != 8 {
		t.Fatalf("progress calls %d want 8", len(seen))
	}
	// Ratio is normalised against Ours.
	ours := res.Ratio[len(res.Ratio)-1]
	if ours.L2 != 1 || ours.Stitch != 1 || ours.TATSec != 1 {
		t.Fatalf("ours ratio %+v", ours)
	}
	for _, row := range res.Cells {
		for _, m := range row {
			if m.L2 < 0 || m.TATSec <= 0 {
				t.Fatalf("implausible metrics %+v", m)
			}
		}
	}
	var buf bytes.Buffer
	if err := res.Render().Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"case1", "Average", "Ratio", "Ours.L2", "GLS-ILT.Stitch"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestRunFig6(t *testing.T) {
	env := tinyEnv(t)
	res, err := env.RunFig6(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 2 || len(res.HardStitch) != 2 || len(res.SmoothStitch) != 2 {
		t.Fatalf("shape %+v", res)
	}
	var buf bytes.Buffer
	if err := res.Render().Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Eq.14") {
		t.Fatalf("table:\n%s", buf.String())
	}
}

func TestRunFig7(t *testing.T) {
	env := tinyEnv(t)
	res, err := env.RunFig7(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 2 {
		t.Fatalf("cases %d", len(res.Cases))
	}
	for i := range res.Cases {
		if res.HealedNewEdges[i] < 0 || res.DCOriginal[i] < 0 {
			t.Fatalf("negative stitch loss at %d", i)
		}
	}
	var buf bytes.Buffer
	if err := res.Render().Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "new edges") {
		t.Fatalf("table:\n%s", buf.String())
	}
}

func TestRunFig8(t *testing.T) {
	env := tinyEnv(t)
	res, err := env.RunFig8(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Counts) != 2 || len(res.Counts[0]) != 4 {
		t.Fatalf("shape %+v", res.Counts)
	}
	var buf bytes.Buffer
	if err := res.Render().Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Total") {
		t.Fatalf("table:\n%s", buf.String())
	}
}

// TestRunSpeedup: the sweep runs at pool width 1, one lane per device,
// whatever the width around it, and gives that width back.
func TestRunSpeedup(t *testing.T) {
	defer parallel.SetWorkers(parallel.Workers())
	parallel.SetWorkers(2)
	env := tinyEnv(t)
	res, err := env.RunSpeedup(2, 1, func(string) {
		if w := parallel.Workers(); w != 1 {
			t.Errorf("speedup run at pool width %d, want 1", w)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if w := parallel.Workers(); w != 2 {
		t.Fatalf("pool width %d after the sweep, want the 2 it started at", w)
	}
	if len(res.Devices) != 2 {
		t.Fatalf("devices %v", res.Devices)
	}
	if res.Speedup[0] != 1 {
		t.Fatalf("baseline speedup %v", res.Speedup[0])
	}
	if res.Speedup[1] <= 0 {
		t.Fatalf("speedup %v", res.Speedup[1])
	}
	var buf bytes.Buffer
	if err := res.Render().Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "speedup") {
		t.Fatalf("table:\n%s", buf.String())
	}
}

func TestRunPenalty(t *testing.T) {
	env := tinyEnv(t)
	res, err := env.RunPenalty(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Solvers) != 2 {
		t.Fatalf("solvers %v", res.Solvers)
	}
	var buf bytes.Buffer
	if err := res.Render().Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "single-tile") {
		t.Fatalf("table:\n%s", buf.String())
	}
}

func TestRunAblations(t *testing.T) {
	env := tinyEnv(t)
	res, err := env.RunAblations(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 7 {
		t.Fatalf("variants %v", res.Variants)
	}
	if res.Variants[0] != "ours (default)" {
		t.Fatalf("first variant %q", res.Variants[0])
	}
	var buf bytes.Buffer
	if err := res.Render().Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hard RAS assembly") {
		t.Fatalf("table:\n%s", buf.String())
	}
}

func TestRunMRC(t *testing.T) {
	env := tinyEnv(t)
	res, err := env.RunMRC(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 2 || len(res.NearLine[0]) != 3 || len(res.Total[0]) != 3 {
		t.Fatalf("shape %+v", res)
	}
	for i := range res.Cases {
		for j := range res.Methods {
			if res.NearLine[i][j] > res.Total[i][j] {
				t.Fatalf("near-line count exceeds total at %d/%d", i, j)
			}
		}
	}
	var buf bytes.Buffer
	if err := res.Render().Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "near-line") {
		t.Fatalf("table:\n%s", buf.String())
	}
}
