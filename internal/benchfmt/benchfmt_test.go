package benchfmt

import (
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"mgsilt/internal/report"
)

// sample builds a comparable two-method document.
func sample() *Doc {
	return &Doc{
		GeneratedAt: "2026-01-01T00:00:00Z",
		Scale:       "small",
		N:           64, Clip: 128, Cases: 3, Iters: 40,
		Workers: 4,
		Kernels: "abbe:n=64",
		CalibNS: 20_000_000, // 20ms reference
		Experiments: []Experiment{{
			Name: "table1",
			Methods: []Method{
				{Name: "GLS-ILT", Metrics: report.Metrics{L2: 900, PVBand: 500, Stitch: 40, TATSec: 2.0}},
				{Name: "Ours", Metrics: report.Metrics{L2: 700, PVBand: 450, Stitch: 10, TATSec: 1.0}},
			},
			Headers: []string{"case"},
			Rows:    [][]string{{"c1"}},
		}},
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	d := sample()
	if err := d.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scale != d.Scale || got.Workers != d.Workers || got.Kernels != d.Kernels || got.CalibNS != d.CalibNS {
		t.Fatalf("provenance lost in round trip: %+v", got)
	}
	if len(got.Experiments) != 1 || len(got.Experiments[0].Methods) != 2 {
		t.Fatalf("experiments lost in round trip: %+v", got.Experiments)
	}
	if got.Experiments[0].Methods[1].Metrics.TATSec != 1.0 {
		t.Fatalf("metrics lost in round trip")
	}
}

func TestCompareIdenticalPasses(t *testing.T) {
	res, err := Compare(sample(), sample(), CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("identical docs flagged: %v", res.Regressions)
	}
	if res.Checked != 8 { // 2 methods x (3 quality + 1 TAT)
		t.Fatalf("checked %d comparisons, want 8", res.Checked)
	}
}

// TestCompareSyntheticSlowdownFails is the acceptance check for the CI
// gate: a synthetic 2x TAT slowdown must trip the >10% threshold.
func TestCompareSyntheticSlowdownFails(t *testing.T) {
	cur := sample()
	for i := range cur.Experiments[0].Methods {
		cur.Experiments[0].Methods[i].Metrics.TATSec *= 2
	}
	res, err := Compare(sample(), cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("2x slowdown passed the gate")
	}
	if len(res.Regressions) != 2 {
		t.Fatalf("want 2 TAT regressions, got %v", res.Regressions)
	}
	for _, f := range res.Regressions {
		if f.Metric != "TAT(norm)" {
			t.Fatalf("unexpected metric flagged: %v", f)
		}
		if math.Abs(f.Rel-1.0) > 1e-9 {
			t.Fatalf("relative growth %v, want +100%%", f.Rel)
		}
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	cur := sample()
	cur.Experiments[0].Methods[1].Metrics.TATSec *= 1.05 // +5% < 10%
	res, err := Compare(sample(), cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("+5%% TAT tripped the 10%% gate: %v", res.Regressions)
	}
}

func TestCompareCalibrationNormalises(t *testing.T) {
	// Current host is 2x slower (calibration doubles) and TATs double:
	// normalised TAT is unchanged, gate passes.
	cur := sample()
	cur.CalibNS *= 2
	for i := range cur.Experiments[0].Methods {
		cur.Experiments[0].Methods[i].Metrics.TATSec *= 2
	}
	res, err := Compare(sample(), cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("calibration failed to normalise host speed: %v", res.Regressions)
	}
	// Absolute mode ignores calibration and fails.
	res, err = Compare(sample(), cur, CompareOptions{AbsoluteTAT: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("absolute mode ignored a 2x raw slowdown")
	}
}

func TestCompareQualityRegressionFails(t *testing.T) {
	cur := sample()
	cur.Experiments[0].Methods[1].Metrics.Stitch *= 1.001 // any growth
	res, err := Compare(sample(), cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("stitch-loss regression passed the gate")
	}
	if f := res.Regressions[0]; f.Metric != "Stitch" || f.Method != "Ours" {
		t.Fatalf("wrong finding: %v", f)
	}
	// Improvements never trip the gate.
	cur = sample()
	cur.Experiments[0].Methods[1].Metrics.L2 *= 0.5
	res, err = Compare(sample(), cur, CompareOptions{})
	if err != nil || !res.OK() {
		t.Fatalf("improvement flagged: %v %v", res, err)
	}
}

func TestCompareRefusesIncomparable(t *testing.T) {
	mutate := []struct {
		field string
		fn    func(*Doc)
	}{
		{"scale", func(d *Doc) { d.Scale = "full" }},
		{"n", func(d *Doc) { d.N = 128 }},
		{"clip", func(d *Doc) { d.Clip = 256 }},
		{"cases", func(d *Doc) { d.Cases = 20 }},
		{"iters", func(d *Doc) { d.Iters = 100 }},
		{"kernels", func(d *Doc) { d.Kernels = "abbe:n=128" }},
		{"workers", func(d *Doc) { d.Workers = 1 }},
	}
	for _, m := range mutate {
		cur := sample()
		m.fn(cur)
		if _, err := Compare(sample(), cur, CompareOptions{}); err == nil {
			t.Fatalf("%s mismatch accepted", m.field)
		} else if !strings.Contains(err.Error(), m.field) {
			t.Fatalf("%s mismatch reported as: %v", m.field, err)
		}
	}
}

func TestCompareMissingMethodErrors(t *testing.T) {
	cur := sample()
	cur.Experiments[0].Methods = cur.Experiments[0].Methods[:1]
	if _, err := Compare(sample(), cur, CompareOptions{}); err == nil {
		t.Fatal("missing method accepted")
	}
	cur = sample()
	cur.Experiments = nil
	if _, err := Compare(sample(), cur, CompareOptions{}); err == nil {
		t.Fatal("missing experiment accepted")
	}
}

func allocsPtr(v float64) *float64 { return &v }

// TestLossGradAllocsRoundTrip pins the tri-state semantics of the
// optional allocation field: nil is omitted, an explicit 0 survives.
func TestLossGradAllocsRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	d := sample()
	d.LossGradAllocs = allocsPtr(0)
	if err := d.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.LossGradAllocs == nil || *got.LossGradAllocs != 0 {
		t.Fatalf("explicit zero allocs lost in round trip: %v", got.LossGradAllocs)
	}
}

func TestValidateRejectsBadAllocs(t *testing.T) {
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		d := sample()
		d.LossGradAllocs = allocsPtr(bad)
		if err := d.Validate(); err == nil {
			t.Errorf("lossgrad_allocs_per_op=%v accepted", bad)
		}
	}
}

// TestCompareAllocsGate covers the allocation regression gate: absent
// on either side → not compared; present on both → growth beyond the
// absolute warm-up slack is a regression, and a 0 baseline must stay 0.
func TestCompareAllocsGate(t *testing.T) {
	// Baseline without the field (pre-measurement document): tolerated.
	cur := sample()
	cur.LossGradAllocs = allocsPtr(100)
	res, err := Compare(sample(), cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("allocs against field-less baseline flagged: %v", res.Regressions)
	}

	// 0 -> 0 passes and counts as a performed check.
	base := sample()
	base.LossGradAllocs = allocsPtr(0)
	cur = sample()
	cur.LossGradAllocs = allocsPtr(0)
	res, err = Compare(base, cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() || res.Checked != 9 {
		t.Fatalf("0->0 allocs: OK=%v checked=%d, want pass with 9 checks", res.OK(), res.Checked)
	}

	// 0 -> 2 is a regression even though the relative growth is infinite.
	cur.LossGradAllocs = allocsPtr(2)
	res, err = Compare(base, cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("0 -> 2 allocs/op passed the gate")
	}
	f := res.Regressions[0]
	if f.Metric != "allocs/op" || !math.IsInf(f.Rel, 1) {
		t.Fatalf("unexpected finding %+v", f)
	}
}

func TestValidateRejectsBadHitRate(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.1, math.NaN(), math.Inf(1)} {
		d := sample()
		d.CacheHitRate = allocsPtr(bad)
		if err := d.Validate(); err == nil {
			t.Errorf("cache_hit_rate=%v accepted", bad)
		}
	}
	d := sample()
	d.CacheHitRate = allocsPtr(1)
	if err := d.Validate(); err != nil {
		t.Fatalf("cache_hit_rate=1 rejected: %v", err)
	}
}

// TestCompareHitRateGate covers the cache gate: absent on either side
// → not compared; present on both → a drop beyond the absolute slack
// fails, while growth and within-slack dips pass. The direction is
// inverted relative to every other gate.
func TestCompareHitRateGate(t *testing.T) {
	// Baseline without the field (pre-cache document): tolerated.
	cur := sample()
	cur.CacheHitRate = allocsPtr(0)
	res, err := Compare(sample(), cur, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("hit rate against field-less baseline flagged: %v", res.Regressions)
	}

	compare := func(b, c float64) *Result {
		base, cur := sample(), sample()
		base.CacheHitRate = allocsPtr(b)
		cur.CacheHitRate = allocsPtr(c)
		res, err := Compare(base, cur, CompareOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Identical, improved, and within-slack dips all pass — and count
	// as a performed check.
	for _, c := range [][2]float64{{1, 1}, {0.6, 0.9}, {0.9, 0.89}} {
		res := compare(c[0], c[1])
		if !res.OK() || res.Checked != 9 {
			t.Fatalf("%.2f -> %.2f: OK=%v checked=%d, want pass with 9 checks",
				c[0], c[1], res.OK(), res.Checked)
		}
	}

	// A genuine drop is a regression with the drop as a negative Rel.
	res = compare(1, 0.5)
	if res.OK() {
		t.Fatal("hit rate 1.0 -> 0.5 passed the gate")
	}
	f := res.Regressions[0]
	if f.Metric != "hit-rate" || f.Rel >= 0 {
		t.Fatalf("unexpected finding %+v", f)
	}
}

func TestCalibrate(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration loop in -short mode")
	}
	c := Calibrate()
	if c <= 0 {
		t.Fatalf("Calibrate() = %d", c)
	}
}

func shardPtr(v int) *int { return &v }

func TestValidateRejectsBadShardCount(t *testing.T) {
	for _, bad := range []int{0, -1} {
		d := sample()
		d.ShardCount = shardPtr(bad)
		if err := d.Validate(); err == nil {
			t.Errorf("shard_count=%d accepted", bad)
		}
	}
	d := sample()
	d.ShardCount = shardPtr(4)
	if err := d.Validate(); err != nil {
		t.Fatalf("shard_count=4 rejected: %v", err)
	}
}

// TestCompareShardCountProvenance covers the tri-state shard_count
// gate: an absent field means the run predates sharding and is
// equivalent to shard count 1, so pre-sharding baselines stay
// comparable with unsharded runs; any true mismatch is incomparable
// provenance, never a regression.
func TestCompareShardCountProvenance(t *testing.T) {
	compat := []struct {
		name      string
		base, cur *int
	}{
		{"nil-nil", nil, nil},
		{"nil-1", nil, shardPtr(1)},
		{"1-nil", shardPtr(1), nil},
		{"2-2", shardPtr(2), shardPtr(2)},
	}
	for _, tc := range compat {
		base, cur := sample(), sample()
		base.ShardCount, cur.ShardCount = tc.base, tc.cur
		if _, err := Compare(base, cur, CompareOptions{}); err != nil {
			t.Errorf("%s: comparable runs rejected: %v", tc.name, err)
		}
	}
	mismatch := []struct {
		name      string
		base, cur *int
	}{
		{"1-2", shardPtr(1), shardPtr(2)},
		{"nil-2", nil, shardPtr(2)},
		{"4-nil", shardPtr(4), nil},
	}
	for _, tc := range mismatch {
		base, cur := sample(), sample()
		base.ShardCount, cur.ShardCount = tc.base, tc.cur
		if _, err := Compare(base, cur, CompareOptions{}); err == nil {
			t.Errorf("%s: incomparable shard counts accepted", tc.name)
		}
	}
}

func solverPtr(v string) *string { return &v }

func TestValidateRejectsEmptySolver(t *testing.T) {
	d := sample()
	d.Solver = solverPtr("")
	if err := d.Validate(); err == nil {
		t.Fatal("empty solver accepted")
	}
	d.Solver = solverPtr("admm")
	if err := d.Validate(); err != nil {
		t.Fatalf("solver=admm rejected: %v", err)
	}
}

func TestParseSolverRoundTrip(t *testing.T) {
	d := sample()
	d.Solver = solverPtr("curvy")
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Solver == nil || *got.Solver != "curvy" {
		t.Fatalf("solver round-trip = %v", got.Solver)
	}
	if _, err := Parse([]byte(`{"solver":""}`)); err == nil {
		t.Fatal("Parse accepted an empty solver field")
	}
}

// TestCompareSolverProvenance covers the tri-state solver gate: an
// absent field means the run predates the solver registry and is
// equivalent to the default "pixel" backend, so pre-registry baselines
// stay comparable with default runs; any true mismatch is incomparable
// provenance, never a regression.
func TestCompareSolverProvenance(t *testing.T) {
	compat := []struct {
		name      string
		base, cur *string
	}{
		{"nil-nil", nil, nil},
		{"nil-pixel", nil, solverPtr("pixel")},
		{"pixel-nil", solverPtr("pixel"), nil},
		{"admm-admm", solverPtr("admm"), solverPtr("admm")},
	}
	for _, tc := range compat {
		base, cur := sample(), sample()
		base.Solver, cur.Solver = tc.base, tc.cur
		if _, err := Compare(base, cur, CompareOptions{}); err != nil {
			t.Errorf("%s: comparable runs rejected: %v", tc.name, err)
		}
	}
	mismatch := []struct {
		name      string
		base, cur *string
	}{
		{"pixel-admm", solverPtr("pixel"), solverPtr("admm")},
		{"nil-curvy", nil, solverPtr("curvy")},
		{"levelset-nil", solverPtr("levelset"), nil},
	}
	for _, tc := range mismatch {
		base, cur := sample(), sample()
		base.Solver, cur.Solver = tc.base, tc.cur
		if _, err := Compare(base, cur, CompareOptions{}); err == nil {
			t.Errorf("%s: incomparable solvers accepted", tc.name)
		}
	}
}
