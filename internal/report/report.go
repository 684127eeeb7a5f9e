// Package report renders experiment results as aligned text tables and
// CSV, in the style of the paper's Table 1 (per-case rows, an Average
// row, and a Ratio row normalised against a reference column group).
package report

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	headers []string
	rows    [][]string
}

// New creates a table with the given column headers.
func New(headers ...string) *Table {
	return &Table{headers: headers}
}

// Headers returns the column headers.
func (t *Table) Headers() []string { return t.headers }

// AddRow appends a row; it must match the header count.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.headers) {
		panic(fmt.Sprintf("report: row has %d cells, table has %d columns", len(cells), len(t.headers)))
	}
	t.rows = append(t.rows, cells)
}

// Rows returns a copy of the data rows (cells are shared).
func (t *Table) Rows() [][]string {
	out := make([][]string, len(t.rows))
	copy(out, t.rows)
	return out
}

// Fprint writes the table with space-aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.headers)); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total-2)); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// FprintCSV writes the table as CSV (no quoting — cells are numeric or
// simple identifiers by construction).
func (t *Table) FprintCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.headers, ",")); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Metrics is one method's Table 1 cell group for one case.
type Metrics struct {
	L2     float64
	PVBand float64
	Stitch float64
	TATSec float64
}

// Add accumulates o into m (for averaging).
func (m *Metrics) Add(o Metrics) {
	m.L2 += o.L2
	m.PVBand += o.PVBand
	m.Stitch += o.Stitch
	m.TATSec += o.TATSec
}

// Scale multiplies all fields by f.
func (m *Metrics) Scale(f float64) {
	m.L2 *= f
	m.PVBand *= f
	m.Stitch *= f
	m.TATSec *= f
}

// Ratio returns m/ref per field (NaN-safe: zero denominators give 0).
func (m Metrics) Ratio(ref Metrics) Metrics {
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return Metrics{
		L2:     div(m.L2, ref.L2),
		PVBand: div(m.PVBand, ref.PVBand),
		Stitch: div(m.Stitch, ref.Stitch),
		TATSec: div(m.TATSec, ref.TATSec),
	}
}

// Cells renders the metric group as table cells.
func (m Metrics) Cells() []string {
	return []string{
		fmt.Sprintf("%.0f", m.L2),
		fmt.Sprintf("%.0f", m.PVBand),
		fmt.Sprintf("%.1f", m.Stitch),
		fmt.Sprintf("%.2f", m.TATSec),
	}
}

// RatioCells renders the metric group as ratio cells.
func (m Metrics) RatioCells() []string {
	return []string{
		fmt.Sprintf("%.4f", m.L2),
		fmt.Sprintf("%.4f", m.PVBand),
		fmt.Sprintf("%.4f", m.Stitch),
		fmt.Sprintf("%.4f", m.TATSec),
	}
}

// MetricHeaders returns the Table 1 sub-headers for one method group.
func MetricHeaders(method string) []string {
	return []string{
		method + ".L2",
		method + ".PVB",
		method + ".Stitch",
		method + ".TAT(s)",
	}
}
