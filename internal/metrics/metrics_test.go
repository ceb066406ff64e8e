package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestSeriesAppend(t *testing.T) {
	var s Series
	s.Append(1, 10)
	s.Append(2, 5)
	if len(s.Points) != 2 || s.Points[1] != (Point{T: 2, V: 5}) {
		t.Errorf("Points = %v", s.Points)
	}
}

func TestSeriesAt(t *testing.T) {
	s := Series{Points: []Point{{1, 10}, {3, 5}, {7, 1}}}
	if got := s.At(3); got != 5 {
		t.Errorf("At(3) = %g, want 5 (exact hit)", got)
	}
	if got := s.At(6.9); got != 5 {
		t.Errorf("At(6.9) = %g, want 5 (last at or before)", got)
	}
	if got := s.At(100); got != 1 {
		t.Errorf("At(100) = %g, want 1", got)
	}
	if got := s.At(0.5); !math.IsNaN(got) {
		t.Errorf("At before the first sample = %g, want NaN", got)
	}
}

func TestSeriesResample(t *testing.T) {
	var s Series
	for i := 0; i < 100; i++ {
		s.Append(float64(i), float64(100-i))
	}
	r := s.Resample(10)
	if len(r.Points) > 11 || len(r.Points) < 5 {
		t.Errorf("resampled length = %d, want about 10", len(r.Points))
	}
	// First and last points must be retained.
	if r.Points[0] != s.Points[0] || r.Points[len(r.Points)-1] != s.Points[len(s.Points)-1] {
		t.Errorf("resample must keep the endpoints")
	}
	// Times must stay increasing.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].T <= r.Points[i-1].T {
			t.Errorf("resampled times not increasing at %d", i)
		}
	}
	// A short series is returned unchanged.
	short := Series{Points: []Point{{1, 1}, {2, 2}}}
	if got := short.Resample(10); len(got.Points) != 2 {
		t.Errorf("short series must not change, got %d points", len(got.Points))
	}
}

func TestTableRenderAlignsAndCounts(t *testing.T) {
	tbl := NewTable("demo", "name", "value")
	tbl.AddRow("alpha", 1.5)
	tbl.AddRow("b", 20)
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "alpha") || !strings.Contains(out, "1.5") {
		t.Errorf("render output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 4 { // title, header, separator/rows
		t.Errorf("render has %d lines:\n%s", len(lines), out)
	}
}

func TestTableFloatsFormatting(t *testing.T) {
	tbl := NewTable("", "x")
	tbl.AddRow(0.000123456789)
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatalf("Render: %v", err)
	}
	out := sb.String()
	if !strings.Contains(out, "0.0001235") && !strings.Contains(out, "1.235e-04") {
		t.Errorf("floats should render with ~4 significant digits, got:\n%s", out)
	}
}
