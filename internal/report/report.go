// Package report renders characterization results as aligned text tables,
// CSV, and simple ASCII bar charts. The benchmark harness uses it to print
// the same rows/series the paper's tables and figures report.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Table is a simple column-oriented result table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRowf appends a pre-formatted row of string cells.
func (t *Table) AddRowf(cells ...string) {
	t.Rows = append(t.Rows, append([]string(nil), cells...))
}

// WriteText renders the table with aligned columns to w.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				for p := len(c); p < widths[i]; p++ {
					b.WriteByte(' ')
				}
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV (headers first) to w.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return fmt.Errorf("report: write csv header: %w", err)
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("report: write csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// String renders the table as text.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.WriteText(&b)
	return b.String()
}

// BarChart renders a horizontal ASCII bar chart: one labelled bar per entry,
// scaled so the longest bar spans width characters.
type BarChart struct {
	Title  string
	Width  int // bar width in characters; default 40
	Unit   string
	labels []string
	values []float64
}

// NewBarChart creates a bar chart with the given title.
func NewBarChart(title string) *BarChart {
	return &BarChart{Title: title, Width: 40}
}

// Add appends a labelled value.
func (c *BarChart) Add(label string, value float64) {
	c.labels = append(c.labels, label)
	c.values = append(c.values, value)
}

// WriteText renders the chart to w.
func (c *BarChart) WriteText(w io.Writer) error {
	width := c.Width
	if width <= 0 {
		width = 40
	}
	maxLabel, maxVal := 0, 0.0
	for i, l := range c.labels {
		if len(l) > maxLabel {
			maxLabel = len(l)
		}
		if c.values[i] > maxVal {
			maxVal = c.values[i]
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	for i, l := range c.labels {
		n := 0
		if maxVal > 0 && c.values[i] > 0 {
			n = int(c.values[i] / maxVal * float64(width))
			if n == 0 {
				n = 1
			}
		}
		fmt.Fprintf(&b, "%-*s | %s %.4g%s\n", maxLabel, l, strings.Repeat("#", n), c.values[i], c.Unit)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// String renders the chart as text.
func (c *BarChart) String() string {
	var b strings.Builder
	_ = c.WriteText(&b)
	return b.String()
}

// Pct formats a fraction as a percentage with one decimal, e.g. 0.202 -> "20.2%".
func Pct(frac float64) string {
	return strconv.FormatFloat(frac*100, 'f', 1, 64) + "%"
}

// MV formats a voltage in volts as millivolts, e.g. 0.98 -> "980mV".
func MV(v float64) string {
	return strconv.FormatFloat(v*1000, 'f', 0, 64) + "mV"
}
