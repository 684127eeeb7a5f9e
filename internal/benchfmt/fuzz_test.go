package benchfmt

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestParseAcceptsCommittedBaseline pins the hardened parser against
// the repository's committed documents: tightening Validate must never
// orphan the baseline the CI gate diffs against, nor the older points
// of the trajectory, whose retired fields are ignored.
func TestParseAcceptsCommittedBaseline(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed documents: %v", err)
	}
	for _, path := range paths {
		d, err := ReadFile(path)
		if err != nil {
			t.Fatalf("committed document rejected: %v", err)
		}
		if len(d.Experiments) == 0 {
			t.Fatalf("%s parsed implausibly: %+v", path, d)
		}
		if filepath.Base(path) == "BENCH_baseline.json" && (len(d.Provenance) == 0 || len(d.Cells) == 0) {
			t.Fatalf("baseline has no provenance or cells: %+v", d)
		}
	}
}

func TestParseRejectsInvalidDocs(t *testing.T) {
	bad := []string{
		`{"workers":-1}`,
		`{"cells":{"iterations_to_quality":-1}}`,
		`{"cells":{"cache_hit_rate":1.5}}`,
		`{"experiments":[{"experiment":""}]}`,
		`{"experiments":[{"experiment":"t","methods":[{"name":""}]}]}`,
		`{"experiments":[{"experiment":"t","methods":[{"name":"m","metrics":{"L2":-1}}]}]}`,
		`{"experiments":[{"experiment":"t","headers":["a","b"],"rows":[["x"]]}]}`,
		`not json`,
	}
	for _, s := range bad {
		if _, err := Parse([]byte(s)); err == nil {
			t.Errorf("Parse accepted %s", s)
		}
	}
}

// FuzzParseTrajectory attacks the trajectory-document parser. Any
// input may be rejected, but none may panic, and an accepted document
// must survive a marshal/re-parse round trip (Parse's validation is
// self-consistent with what the writer emits).
func FuzzParseTrajectory(f *testing.F) {
	if data, err := os.ReadFile("../../BENCH_baseline.json"); err == nil {
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"provenance":{"scale":"small","n":"64"},"workers":2,"experiments":[{"experiment":"table1","headers":["a"],"rows":[["1"]]}]}`))
	f.Add([]byte(`{"experiments":[{"experiment":"t","methods":[{"name":"m","metrics":{"L2":1e308,"TATSec":0.5}}]}]}`))
	f.Add([]byte(`{"cells":{"iterations_to_quality":12,"tiles_dropped_rate":0.04},"experiments":[]}`))
	f.Add([]byte(`{"provenance":{"solver":"admm"},"experiments":[{"experiment":"solvers","headers":["Solver","L2"],"rows":[["admm","1200"]]}]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Parse(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("accepted doc does not re-marshal: %v", err)
		}
		if _, err := Parse(out); err != nil {
			t.Fatalf("accepted doc rejected after round trip: %v\n%s", err, out)
		}
	})
}
