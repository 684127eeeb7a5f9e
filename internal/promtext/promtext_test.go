package promtext

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriterFormat(t *testing.T) {
	var buf bytes.Buffer
	w := New(&buf)
	w.Counter("jobs_total", "Jobs.", uint64(3))
	w.Gauge("load", "Load.", 1234567.0)
	w.Family("hits_total", "Hits by tier.", "counter")
	w.Sample("hits_total", 40, "tier", "ram")
	w.Sample("hits_total", int64(2), "tier", `di"sk`)
	w.Family("lat_seconds", "Latency.", "histogram")
	w.Histogram("lat_seconds", []float64{0.5, 2}, []uint64{1, 2}, 7.25, 4, "stage", "fine")
	w.Histogram("lat_seconds", []float64{0.5, 2}, []uint64{0, 0}, 0, 0)
	want := `# HELP jobs_total Jobs.
# TYPE jobs_total counter
jobs_total 3
# HELP load Load.
# TYPE load gauge
load 1.234567e+06
# HELP hits_total Hits by tier.
# TYPE hits_total counter
hits_total{tier="ram"} 40
hits_total{tier="di\"sk"} 2
# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{stage="fine",le="0.5"} 1
lat_seconds_bucket{stage="fine",le="2"} 3
lat_seconds_bucket{stage="fine",le="+Inf"} 4
lat_seconds_sum{stage="fine"} 7.25
lat_seconds_count{stage="fine"} 4
lat_seconds_bucket{le="0.5"} 0
lat_seconds_bucket{le="2"} 0
lat_seconds_bucket{le="+Inf"} 0
lat_seconds_sum 0
lat_seconds_count 0
`
	if got := buf.String(); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
	if err := Lint(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}

func TestLintRejects(t *testing.T) {
	const head = "# HELP a A.\n# TYPE a counter\n"
	const hist = "# HELP h H.\n# TYPE h histogram\n"
	for name, body := range map[string]string{
		"sample before any family": "a 1\n",
		"sample of another family": head + "b 1\n",
		"TYPE without HELP":        "# TYPE a counter\na 1\n",
		"duplicate family":         head + "a 1\n" + head + "a 2\n",
		"value does not parse":     head + "a one\n",
		"malformed sample":         head + "a{x=1\n",
		"buckets not cumulative":   hist + "h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"no +Inf bucket":           hist + "h_bucket{le=\"1\"} 2\nh_sum 1\nh_count 2\n",
		"+Inf differs from count":  hist + "h_bucket{s=\"x\",le=\"+Inf\"} 2\nh_sum{s=\"x\"} 1\nh_count{s=\"x\"} 3\n",
		"bucket without le":        hist + "h_bucket 2\n",
		"unknown histogram suffix": hist + "h_total 2\n",
	} {
		if err := Lint([]byte(body)); err == nil {
			t.Errorf("%s: accepted\n%s", name, body)
		} else if !strings.HasPrefix(err.Error(), "promtext: line ") {
			t.Errorf("%s: error %q does not name the line", name, err)
		}
	}
}
