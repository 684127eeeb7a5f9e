package report

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTableFprint(t *testing.T) {
	tab := New("case", "L2")
	tab.AddRow("case1", "123")
	tab.AddRow("case20", "4")
	var buf bytes.Buffer
	if err := tab.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "case ") {
		t.Fatalf("header line %q", lines[0])
	}
	// Columns align: "L2" of row 1 starts at same offset as header's.
	off := strings.Index(lines[0], "L2")
	if lines[2][off:off+3] != "123" {
		t.Fatalf("misaligned columns:\n%s", buf.String())
	}
	if len(tab.Rows()) != 2 {
		t.Fatalf("%d rows", len(tab.Rows()))
	}
}

func TestTableCSV(t *testing.T) {
	tab := New("a", "b")
	tab.AddRow("1", "2")
	var buf bytes.Buffer
	if err := tab.FprintCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "a,b\n1,2\n" {
		t.Fatalf("csv %q", buf.String())
	}
}

func TestAddRowPanicsOnArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New("a", "b").AddRow("only-one")
}

func TestMetricsAddScaleRatio(t *testing.T) {
	m := Metrics{L2: 10, PVBand: 20, Stitch: 30, TATSec: 40}
	m.Add(Metrics{L2: 10, PVBand: 20, Stitch: 30, TATSec: 40})
	m.Scale(0.5)
	if m.L2 != 10 || m.PVBand != 20 || m.Stitch != 30 || m.TATSec != 40 {
		t.Fatalf("add/scale wrong: %+v", m)
	}
	r := m.Ratio(Metrics{L2: 5, PVBand: 10, Stitch: 15, TATSec: 20})
	if r.L2 != 2 || r.PVBand != 2 || r.Stitch != 2 || r.TATSec != 2 {
		t.Fatalf("ratio wrong: %+v", r)
	}
	z := m.Ratio(Metrics{})
	if z.L2 != 0 || math.IsNaN(z.L2) {
		t.Fatalf("zero-denominator ratio should be 0, got %+v", z)
	}
}

func TestMetricsCells(t *testing.T) {
	m := Metrics{L2: 123.4, PVBand: 5.6, Stitch: 7.89, TATSec: 1.234}
	cells := m.Cells()
	if len(cells) != 4 {
		t.Fatalf("cells %v", cells)
	}
	if cells[0] != "123" || cells[2] != "7.9" || cells[3] != "1.23" {
		t.Fatalf("cells %v", cells)
	}
	rc := m.RatioCells()
	if rc[0] != "123.4000" {
		t.Fatalf("ratio cells %v", rc)
	}
	h := MetricHeaders("Ours")
	if len(h) != 4 || h[0] != "Ours.L2" || h[3] != "Ours.TAT(s)" {
		t.Fatalf("headers %v", h)
	}
}
