// Package promtext writes the Prometheus text exposition format
// (version 0.0.4) for the /metrics endpoints of iltserver and iltworker.
// It is a writer, not a registry: callers keep their own counters and
// render them on each scrape. Write errors are dropped — the only
// destination is an HTTP response, where a failed write means the
// scraper went away.
package promtext

import (
	"fmt"
	"io"
	"strings"
)

// ContentType is the Content-Type of the format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Writer renders metric families onto an io.Writer.
type Writer struct{ w io.Writer }

// New returns a Writer onto w.
func New(w io.Writer) *Writer { return &Writer{w} }

// Family opens a metric family with its HELP and TYPE lines; typ is
// "counter", "gauge" or "histogram". Its samples follow.
func (w *Writer) Family(name, help, typ string) {
	fmt.Fprintf(w.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample of the open family. Integer values render in
// decimal and floats in their shortest form (%g); labels alternate name
// and value.
func (w *Writer) Sample(name string, v any, labels ...string) {
	fmt.Fprintf(w.w, "%s%s %v\n", name, labelSet(labels), v)
}

// Counter writes a counter family of one unlabelled sample.
func (w *Writer) Counter(name, help string, v any) {
	w.Family(name, help, "counter")
	w.Sample(name, v)
}

// Gauge writes a gauge family of one unlabelled sample.
func (w *Writer) Gauge(name, help string, v any) {
	w.Family(name, help, "gauge")
	w.Sample(name, v)
}

// Histogram writes one series of the open histogram family: a cumulative
// _bucket sample per upper bound and +Inf, then _sum and _count. counts
// are per bucket (not cumulative), one per bound; count also includes
// the observations above the last bound.
func (w *Writer) Histogram(name string, bounds []float64, counts []uint64, sum float64, count uint64, labels ...string) {
	le := append(append([]string(nil), labels...), "le", "")
	cum := uint64(0)
	for i, ub := range bounds {
		cum += counts[i]
		le[len(le)-1] = fmt.Sprintf("%g", ub)
		w.Sample(name+"_bucket", cum, le...)
	}
	le[len(le)-1] = "+Inf"
	w.Sample(name+"_bucket", count, le...)
	w.Sample(name+"_sum", sum, labels...)
	w.Sample(name+"_count", count, labels...)
}

func labelSet(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		fmt.Fprintf(&b, "%s%s=%q", sep, labels[i], labels[i+1])
	}
	return b.String() + "}"
}
