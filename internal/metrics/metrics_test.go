package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestSeriesAppendLenFinal(t *testing.T) {
	var s Series
	if s.Len() != 0 {
		t.Errorf("empty series Len = %d", s.Len())
	}
	if !math.IsNaN(s.Final()) {
		t.Errorf("Final of empty series must be NaN")
	}
	s.Append(1, 10)
	s.Append(2, 5)
	if s.Len() != 2 || s.Final() != 5 {
		t.Errorf("Len=%d Final=%g", s.Len(), s.Final())
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

func TestSeriesTimeTo(t *testing.T) {
	s := Series{Points: []Point{{1, 10}, {3, 5}, {7, 0.5}, {9, 0.1}}}
	if got := s.TimeTo(5); got != 3 {
		t.Errorf("TimeTo(5) = %g, want 3", got)
	}
	if got := s.TimeTo(0.3); got != 9 {
		t.Errorf("TimeTo(0.3) = %g, want 9", got)
	}
	if got := s.TimeTo(0.01); !math.IsNaN(got) {
		t.Errorf("TimeTo below the minimum = %g, want NaN", got)
	}
}

func TestSeriesResample(t *testing.T) {
	var s Series
	for i := 0; i < 100; i++ {
		s.Append(float64(i), float64(100-i))
	}
	r := s.Resample(10)
	if r.Len() > 11 || r.Len() < 5 {
		t.Errorf("resampled length = %d, want about 10", r.Len())
	}
	// First and last points must be retained.
	if r.Points[0] != s.Points[0] || r.Points[r.Len()-1] != s.Points[s.Len()-1] {
		t.Errorf("resample must keep the endpoints")
	}
	// Times must stay increasing.
	for i := 1; i < r.Len(); i++ {
		if r.Points[i].T <= r.Points[i-1].T {
			t.Errorf("resampled times not increasing at %d", i)
		}
	}
	// A short series is returned unchanged.
	short := Series{Points: []Point{{1, 1}, {2, 2}}}
	if got := short.Resample(10); got.Len() != 2 {
		t.Errorf("short series must not change, got %d points", got.Len())
	}
}

func TestTableRenderAlignsAndCounts(t *testing.T) {
	tbl := NewTable("demo", "name", "value")
	tbl.AddRow("alpha", 1.5)
	tbl.AddRow("b", 20)
	if tbl.NumRows() != 2 {
		t.Errorf("NumRows = %d", tbl.NumRows())
	}
	out := tbl.RenderString()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "alpha") || !strings.Contains(out, "1.5") {
		t.Errorf("render output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 4 { // title, header, separator/rows
		t.Errorf("render has %d lines:\n%s", len(lines), out)
	}
	var sb strings.Builder
	if err := tbl.Render(&sb); err != nil {
		t.Fatalf("Render: %v", err)
	}
	if sb.String() == "" {
		t.Errorf("Render wrote nothing")
	}
}

func TestTableFloatsFormatting(t *testing.T) {
	tbl := NewTable("", "x")
	tbl.AddRow(0.000123456789)
	out := tbl.RenderString()
	if !strings.Contains(out, "0.0001235") && !strings.Contains(out, "1.235e-04") {
		t.Errorf("floats should render with ~4 significant digits, got:\n%s", out)
	}
}
