package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sparse"
)

// TestGenerateRoundTrip: the mm: spec dtmgen prints names the system it was
// asked to write — parsing the printed line and building it gives back the
// source's matrix, in the general and in the symmetric file form.
func TestGenerateRoundTrip(t *testing.T) {
	src, err := sparse.ParseSource("poisson:nx=5,ny=5")
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := src.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range []bool{false, true} {
		dir := t.TempDir()
		matrix, rhs := filepath.Join(dir, "A.mtx"), filepath.Join(dir, "b.vec")
		var out bytes.Buffer
		if err := generate(&out, src, matrix, rhs, sym); err != nil {
			t.Fatalf("sym=%v: %v", sym, err)
		}
		_, spec, ok := strings.Cut(out.String(), "source spec: ")
		if !ok {
			t.Fatalf("sym=%v: no source spec in %q", sym, out.String())
		}
		mm, err := sparse.ParseSource(strings.TrimSpace(spec))
		if err != nil {
			t.Fatalf("sym=%v: printed spec does not parse: %v", sym, err)
		}
		got, _, err := mm.Build()
		if err != nil {
			t.Fatalf("sym=%v: printed spec does not build: %v", sym, err)
		}
		if !got.A.EqualApprox(want.A, 0) {
			t.Errorf("sym=%v: the written matrix differs from the source's", sym)
		}
	}
	if err := generate(&bytes.Buffer{}, src, filepath.Join(t.TempDir(), "missing", "A.mtx"), "b.vec", false); err == nil {
		t.Error("an unwritable matrix path must be an error")
	}
}
