// Package metrics provides the small reporting toolkit the experiment harness
// uses: time-series of convergence traces and plain-text table rendering, so
// every figure and table of the paper can be regenerated as rows and series
// on stdout.
package metrics

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Point is one (time, value) sample of a series.
type Point struct {
	T float64
	V float64
}

// Series is a named sequence of samples, typically an error-versus-time
// convergence curve.
type Series struct {
	Name   string
	Points []Point
}

// Append adds a sample.
func (s *Series) Append(t, v float64) { s.Points = append(s.Points, Point{T: t, V: v}) }

// At returns the last value at or before time t (NaN if none).
func (s *Series) At(t float64) float64 {
	v := math.NaN()
	for _, p := range s.Points {
		if p.T <= t {
			v = p.V
		} else {
			break
		}
	}
	return v
}

// Resample returns the series thinned to at most maxPoints samples (first and
// last always retained).
func (s *Series) Resample(maxPoints int) Series {
	out := Series{Name: s.Name}
	n := len(s.Points)
	if maxPoints <= 0 || n <= maxPoints {
		out.Points = append(out.Points, s.Points...)
		return out
	}
	step := float64(n-1) / float64(maxPoints-1)
	last := -1
	for i := 0; i < maxPoints; i++ {
		idx := int(math.Round(float64(i) * step))
		if idx >= n {
			idx = n - 1
		}
		if idx == last {
			continue
		}
		out.Points = append(out.Points, s.Points[idx])
		last = idx
	}
	return out
}

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v, floats with %.4g.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			if math.IsNaN(v) {
				row[i] = "n/a"
			} else {
				row[i] = fmt.Sprintf("%.4g", v)
			}
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table as aligned plain text.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				fmt.Fprintf(&b, "%s  ", c)
			}
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
