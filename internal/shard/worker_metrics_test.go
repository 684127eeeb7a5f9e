package shard

import (
	"bytes"
	"flag"
	"net/http/httptest"
	"os"
	"testing"

	"mgsilt/internal/promtext"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// TestWorkerMetricsGolden pins the iltworker /metrics body for a fixed
// counter state to the bytes recorded on the commit before the shared
// text writer (PR 14), and lints the format.
func TestWorkerMetricsGolden(t *testing.T) {
	w, err := NewWorker(WorkerOptions{Devices: 3})
	if err != nil {
		t.Fatal(err)
	}
	w.mBatches, w.mTiles, w.mFailures = 12, 345, 1
	w.mBytesIn, w.mBytesOut = 123456789, 2345678
	w.mHaloInits, w.mFullInits = 300, 45
	w.mCachedTargets, w.mFullTargets = 336, 9
	w.sessions["a"], w.sessions["b"] = &session{}, &session{}

	rec := httptest.NewRecorder()
	w.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	got := rec.Body.Bytes()

	const golden = "testdata/worker_metrics.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("/metrics body differs from %s:\n%s", golden, got)
	}
	if err := promtext.Lint(got); err != nil {
		t.Error(err)
	}
}
