// Package mgsilt's root benchmarks regenerate every table and figure
// of the paper's evaluation (Section 4) — see DESIGN.md for the
// experiment index. Each benchmark runs a complete experiment per
// iteration and logs the rendered table; scalar outcomes are also
// reported as benchmark metrics so runs can be diffed numerically.
//
// Scale is controlled with ILT_SCALE (small | default | full); the
// default keeps `go test -bench=.` CI-friendly, while
// `ILT_SCALE=full go test -bench BenchmarkTable1 -timeout 0` performs
// the paper-shaped 20-clip run.
package mgsilt

import (
	"strings"
	"testing"

	"mgsilt/internal/bench"
	"mgsilt/internal/report"
)

func newEnv(b *testing.B) *bench.Env {
	b.Helper()
	env, err := bench.NewEnv(bench.ScaleFromEnv())
	if err != nil {
		b.Fatal(err)
	}
	return env
}

func logTable(b *testing.B, tab *report.Table) {
	b.Helper()
	var sb strings.Builder
	if err := tab.Fprint(&sb); err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", sb.String())
}

// BenchmarkTable1 regenerates Table 1: the four-method comparison
// (GLS-ILT, Multi-level-ILT, Full-chip, Ours) over the clip suite,
// with Average and Ratio rows. The paper-shape expectations are:
// Ours ≈ Full-chip on L2/PVB, D&C baselines worse on L2,
// Multi-level-ILT far worse on stitch loss, and D&C TATs above Ours.
func BenchmarkTable1(b *testing.B) {
	env := newEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := env.RunTable1(nil)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, res.Render())
		for m, name := range res.Methods {
			clean := strings.ToLower(strings.ReplaceAll(name, "-", ""))
			b.ReportMetric(res.Ratio[m].L2, clean+"-L2-ratio")
			b.ReportMetric(res.Ratio[m].Stitch, clean+"-stitch-ratio")
			b.ReportMetric(res.Ratio[m].TATSec, clean+"-TAT-ratio")
		}
	}
}

// BenchmarkFig6WeightedSmoothing regenerates Fig. 6: the weighted
// smoothing assembly (Eq. 14) against hard RAS assembly (Eq. 6) inside
// the multigrid-Schwarz flow. Weighted assembly should lower stitch
// loss without hurting L2.
func BenchmarkFig6WeightedSmoothing(b *testing.B) {
	env := newEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := env.RunFig6(nil)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, res.Render())
		var hard, smooth float64
		for j := range res.Cases {
			hard += res.HardStitch[j]
			smooth += res.SmoothStitch[j]
		}
		n := float64(len(res.Cases))
		b.ReportMetric(hard/n, "hard-stitch")
		b.ReportMetric(smooth/n, "weighted-stitch")
	}
}

// BenchmarkFig7StitchAndHeal regenerates Fig. 7: healing reduces
// stitch loss on the original boundaries but re-creates errors on the
// healing windows' own edges, unlike the multigrid-Schwarz flow.
func BenchmarkFig7StitchAndHeal(b *testing.B) {
	env := newEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := env.RunFig7(nil)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, res.Render())
		var dc, healedOrig, healedNew, ours float64
		for j := range res.Cases {
			dc += res.DCOriginal[j]
			healedOrig += res.HealedOriginal[j]
			healedNew += res.HealedNewEdges[j]
			ours += res.OursOriginal[j]
		}
		n := float64(len(res.Cases))
		b.ReportMetric(dc/n, "dc-stitch")
		b.ReportMetric(healedOrig/n, "healed-orig-stitch")
		b.ReportMetric(healedNew/n, "healed-newedge-stitch")
		b.ReportMetric(ours/n, "ours-stitch")
	}
}

// BenchmarkFig8StitchErrors regenerates Fig. 8: the count of stitch
// errors above the threshold per method. D&C/Multi-level should flag
// many crossings; Full-chip and Ours few.
func BenchmarkFig8StitchErrors(b *testing.B) {
	env := newEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := env.RunFig8(nil)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, res.Render())
		for m, name := range res.Methods {
			total := 0
			for _, row := range res.Counts {
				total += row[m]
			}
			clean := strings.ToLower(strings.ReplaceAll(name, "-", ""))
			b.ReportMetric(float64(total), clean+"-errors")
		}
	}
}

// BenchmarkParallelSpeedup regenerates the Section 4 parallelism
// experiment: multigrid-Schwarz TAT on 1..4 simulated devices (the
// paper reports 2.76× on 4 GPUs).
func BenchmarkParallelSpeedup(b *testing.B) {
	env := newEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := env.RunSpeedup(4, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, res.Render())
		b.ReportMetric(res.Speedup[len(res.Speedup)-1], "speedup-4dev")
	}
}

// BenchmarkTileAssemblyPenalty regenerates the Section 2.3 motivation
// numbers: the L2 increase when a tile's mask is cropped from the
// divide-and-conquer assembly instead of optimised in isolation.
func BenchmarkTileAssemblyPenalty(b *testing.B) {
	env := newEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := env.RunPenalty(nil)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, res.Render())
		for j, s := range res.Solvers {
			clean := strings.ToLower(strings.ReplaceAll(s, "-", ""))
			b.ReportMetric(res.Increase[j], clean+"-penalty")
		}
	}
}

// BenchmarkAblation sweeps the multigrid-Schwarz design choices that
// DESIGN.md calls out (coarse grid, refine pass, staging, blending,
// hand-off cleanup).
func BenchmarkAblation(b *testing.B) {
	env := newEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := env.RunAblations(nil)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, res.Render())
		b.ReportMetric(res.Stitch[0], "ours-stitch")
		b.ReportMetric(res.L2[0], "ours-L2")
	}
}

// BenchmarkHotPathAllocs reports the steady-state heap allocations per
// LossGrad evaluation, the larger of pool widths 1 and 2 — the same
// measurement cmd/iltbench embeds in the trajectory document
// (lossgrad_allocs_per_op) and benchdiff gates — and fails above the
// engine's contract of 0: every spectrum, field buffer and FFT scratch
// in the hot path comes from a size-keyed pool once the pools are warm,
// and a fanned-out section runs through pooled descriptors and step
// functions bound ahead of time.
func BenchmarkHotPathAllocs(b *testing.B) {
	env := newEnv(b)
	for i := 0; i < b.N; i++ {
		allocs := env.MeasureLossGradAllocs()
		b.ReportMetric(allocs, "lossgrad-allocs/op")
		if allocs > 0.5 {
			b.Fatalf("LossGrad steady state allocates %.1f times per op at pool width 1 or 2, want 0", allocs)
		}
	}
}

// BenchmarkMRCViolations quantifies the Section 2.3 manufacturability
// claim: stitch discontinuities create mask-rule violations (necks,
// notches, slivers) concentrated near tile boundaries. Ours should
// carry far fewer near-line violations than divide-and-conquer.
func BenchmarkMRCViolations(b *testing.B) {
	env := newEnv(b)
	for i := 0; i < b.N; i++ {
		res, err := env.RunMRC(nil)
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, res.Render())
		for m, name := range res.Methods {
			total := 0
			for _, row := range res.NearLine {
				total += row[m]
			}
			clean := strings.ToLower(strings.ReplaceAll(strings.ReplaceAll(name, "-", ""), "(D&C)", "dc"))
			b.ReportMetric(float64(total), clean+"-nearline-violations")
		}
	}
}
