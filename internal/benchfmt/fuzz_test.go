package benchfmt

import (
	"encoding/json"
	"os"
	"testing"
)

// TestParseAcceptsCommittedBaseline pins the hardened parser against
// the repository's own regression baseline: tightening Validate must
// never orphan the committed artifact the CI gate diffs against.
func TestParseAcceptsCommittedBaseline(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Parse(data)
	if err != nil {
		t.Fatalf("committed baseline rejected: %v", err)
	}
	if len(d.Experiments) == 0 || d.CalibNS <= 0 {
		t.Fatalf("baseline parsed implausibly: %+v", d)
	}
}

func TestParseRejectsInvalidDocs(t *testing.T) {
	bad := []string{
		`{"n":-1}`,
		`{"calib_ns":-5}`,
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
	f.Add([]byte(`{"scale":"small","n":64,"clip":128,"calib_ns":1,"experiments":[{"experiment":"table1","headers":["a"],"rows":[["1"]]}]}`))
	f.Add([]byte(`{"experiments":[{"experiment":"t","methods":[{"name":"m","metrics":{"L2":1e308,"TATSec":0.5}}]}]}`))
	f.Add([]byte(`{"iterations_to_quality":12,"tiles_dropped_rate":0.04,"experiments":[]}`))
	f.Add([]byte(`{"solver":"admm","shard_count":1,"experiments":[{"experiment":"solvers","headers":["Solver","L2"],"rows":[["admm","1200"]]}]}`))
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
