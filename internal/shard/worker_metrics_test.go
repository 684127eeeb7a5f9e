package shard

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"mgsilt/internal/grid"
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

// TestWorkerCountsChunkedRequestBytes: a chunked request has no
// Content-Length (the server sees -1), so the byte counter must count
// what the decoder read, or it goes down.
func TestWorkerCountsChunkedRequestBytes(t *testing.T) {
	w, err := NewWorker(WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	var body bytes.Buffer
	err = WriteSolveRequest(&body, &SolveRequest{Session: "chunked-e0", N: n, Tiles: []TileWire{{
		Pixels: n * n, Iters: 1, Stretch: 1, LR: 0.4,
		Target: grid.NewMat(n, n), Init: grid.NewMat(n, n),
	}}})
	if err != nil {
		t.Fatal(err)
	}
	size := body.Len()

	req := httptest.NewRequest("POST", "/v1/shard/solve", io.NopCloser(&body))
	req.ContentLength, req.TransferEncoding = -1, []string{"chunked"}
	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("solve answered %d: %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if want := fmt.Sprintf("\nilt_shard_worker_request_bytes_total %d\n", size); !strings.Contains(rec.Body.String(), want) {
		t.Errorf("/metrics does not count the %d-byte chunked body:\n%s", size, rec.Body)
	}
}
