package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mgsilt/internal/benchfmt"
	"mgsilt/internal/report"
)

// doc is a small comparable trajectory document.
func doc() *benchfmt.Doc {
	return &benchfmt.Doc{
		Provenance: map[string]string{"scale": "small", "n": "64", "solver": "pixel"},
		Workers:    2,
		Cells:      map[string]float64{"cache_hit_rate": 1},
		Experiments: []benchfmt.Experiment{{
			Name: "table1",
			Methods: []benchfmt.Method{
				{Name: "Ours", Metrics: report.Metrics{L2: 700, PVBand: 450, Stitch: 10, TATSec: 0.1}},
			},
		}},
	}
}

// exit writes both documents and returns benchdiff's exit status.
func exit(t *testing.T, base, cur *benchfmt.Doc) int {
	t.Helper()
	dir := t.TempDir()
	bp, cp := filepath.Join(dir, "base.json"), filepath.Join(dir, "cur.json")
	if err := base.WriteFile(bp); err != nil {
		t.Fatal(err)
	}
	if err := cur.WriteFile(cp); err != nil {
		t.Fatal(err)
	}
	return exitCode(run([]string{"-baseline", bp, "-current", cp}, io.Discard))
}

func TestExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(base, cur *benchfmt.Doc)
		want   int
	}{
		{"identical", func(_, _ *benchfmt.Doc) {}, 0},
		{"timing and pool width are records", func(_, cur *benchfmt.Doc) {
			cur.Workers = 1
			cur.Experiments[0].Methods[0].Metrics.TATSec *= 3
		}, 0},
		{"L2 one ulp off", func(_, cur *benchfmt.Doc) {
			m := &cur.Experiments[0].Methods[0].Metrics
			m.L2 = math.Nextafter(m.L2, math.Inf(1))
		}, 1},
		{"cell missing", func(_, cur *benchfmt.Doc) { cur.Cells = nil }, 1},
		{"provenance mismatch", func(_, cur *benchfmt.Doc) { cur.Provenance["solver"] = "levelset" }, 2},
		{"experiment missing", func(_, cur *benchfmt.Doc) { cur.Experiments = nil }, 2},
		{"nothing to compare", func(base, _ *benchfmt.Doc) {
			base.Cells = nil
			base.Experiments[0].Methods = nil
		}, 2},
	}
	for _, tc := range cases {
		base, cur := doc(), doc()
		tc.mutate(base, cur)
		if got := exit(t, base, cur); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestBadArguments(t *testing.T) {
	if got := exitCode(run(nil, io.Discard)); got != 2 {
		t.Errorf("no -current: exit %d, want 2", got)
	}
	if got := exitCode(run([]string{"-current", filepath.Join(t.TempDir(), "none.json")}, io.Discard)); got != 2 {
		t.Errorf("unreadable document: exit %d, want 2", got)
	}
	data, err := os.ReadFile("../testdata/retired-flags.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		args := strings.Fields(line)
		err := run(append(args, "-current", "x.json"), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") || exitCode(err) != 2 {
			t.Errorf("%v: %v, want an unknown-flag error", args, err)
		}
	}
}
