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
		Provenance: map[string]string{
			"scale": "small", "n": "64", "clip": "128", "cases": "3", "iters": "40",
			"kernels": "abbe:n=64", "solver": "pixel",
		},
		Workers: 4,
		Cells:   map[string]float64{"cache_hit_rate": 1, "iterations_to_quality": 12},
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
	if got.Workers != d.Workers || got.Provenance["kernels"] != d.Provenance["kernels"] || got.Cells["cache_hit_rate"] != 1 {
		t.Fatalf("provenance or cells lost in round trip: %+v", got)
	}
	if len(got.Experiments) != 1 || len(got.Experiments[0].Methods) != 2 {
		t.Fatalf("experiments lost in round trip: %+v", got.Experiments)
	}
	if got.Experiments[0].Methods[1].Metrics.TATSec != 1.0 {
		t.Fatalf("metrics lost in round trip")
	}
}

func TestCompareIdenticalPasses(t *testing.T) {
	res, err := Compare(sample(), sample())
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("identical docs flagged: %v", res.Changed)
	}
	if res.Checked != 8 { // 2 cells + 2 methods x 3 quality metrics
		t.Fatalf("checked %d comparisons, want 8", res.Checked)
	}
}

// TAT is a record: a 2x slowdown, or a different pool width, changes
// no verdict.
func TestCompareIgnoresTAT(t *testing.T) {
	cur := sample()
	cur.Workers = 1
	for i := range cur.Experiments[0].Methods {
		cur.Experiments[0].Methods[i].Metrics.TATSec *= 2
	}
	res, err := Compare(sample(), cur)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("TAT or workers compared: %v", res.Changed)
	}
}

// Any change of a quality metric is reported, an improvement too: the
// experiments are deterministic, so it means a result bit moved.
func TestCompareQualityRegressionFails(t *testing.T) {
	cur := sample()
	cur.Experiments[0].Methods[1].Metrics.Stitch = math.Nextafter(10, 11)
	res, err := Compare(sample(), cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed) != 1 || res.Changed[0].Name != "table1/Ours Stitch" {
		t.Fatalf("one-ulp stitch change: %v", res.Changed)
	}
	cur = sample()
	cur.Experiments[0].Methods[1].Metrics.L2 *= 0.5
	res, err = Compare(sample(), cur)
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("an L2 improvement passed as unchanged")
	}
}

func TestCompareRefusesIncomparable(t *testing.T) {
	for _, key := range []string{"scale", "n", "clip", "cases", "iters", "kernels", "solver"} {
		cur := sample()
		cur.Provenance[key] += "x"
		if _, err := Compare(sample(), cur); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("%s mismatch: %v", key, err)
		}
		delete(cur.Provenance, key)
		if _, err := Compare(sample(), cur); err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("%s missing: %v", key, err)
		}
	}
	cur := sample()
	cur.Provenance["shards"] = "2"
	if _, err := Compare(sample(), cur); err == nil {
		t.Error("extra provenance key accepted")
	}
}

func TestCompareMissingMethodErrors(t *testing.T) {
	cur := sample()
	cur.Experiments[0].Methods = cur.Experiments[0].Methods[:1]
	if _, err := Compare(sample(), cur); err == nil {
		t.Fatal("missing method accepted")
	}
	cur = sample()
	cur.Experiments = nil
	if _, err := Compare(sample(), cur); err == nil {
		t.Fatal("missing experiment accepted")
	}
}

func TestValidateRejectsBadHitRate(t *testing.T) {
	for _, bad := range []float64{-0.1, 1.1, math.NaN(), math.Inf(1)} {
		d := sample()
		d.Cells["cache_hit_rate"] = bad
		if err := d.Validate(); err == nil {
			t.Errorf("cache_hit_rate=%v accepted", bad)
		}
	}
	d := sample()
	d.Cells["iterations_to_quality"] = 40
	if err := d.Validate(); err != nil {
		t.Fatalf("iterations_to_quality=40 rejected: %v", err)
	}
}

// A baseline cell must be present and equal; a cell only the current
// document carries is not compared.
func TestCompareHitRateGate(t *testing.T) {
	cur := sample()
	cur.Cells["cache_hit_rate"] = math.Nextafter(1, 0)
	res, err := Compare(sample(), cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed) != 1 || res.Changed[0].Name != "cache_hit_rate" {
		t.Fatalf("one-ulp hit-rate change: %v", res.Changed)
	}

	cur = sample()
	delete(cur.Cells, "cache_hit_rate")
	res, err = Compare(sample(), cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed) != 1 || !res.Changed[0].Missing {
		t.Fatalf("missing hit rate: %v", res.Changed)
	}

	cur = sample()
	cur.Cells["tiles_dropped_rate"] = 0.5
	if res, err = Compare(sample(), cur); err != nil || !res.OK() || res.Checked != 8 {
		t.Fatalf("extra current cell: %v %v", res, err)
	}
}

func TestParseSolverRoundTrip(t *testing.T) {
	d := sample()
	d.Provenance["solver"] = "curvy"
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Provenance["solver"] != "curvy" {
		t.Fatalf("solver round-trip = %q", got.Provenance["solver"])
	}
}

// A run on another solver backend is a different experiment, never a
// regression of this one.
func TestCompareSolverProvenance(t *testing.T) {
	base, cur := sample(), sample()
	base.Provenance["solver"], cur.Provenance["solver"] = "admm", "admm"
	if _, err := Compare(base, cur); err != nil {
		t.Errorf("same solver rejected: %v", err)
	}
	cur.Provenance["solver"] = "pixel"
	if _, err := Compare(base, cur); err == nil {
		t.Error("admm against pixel accepted")
	}
}
