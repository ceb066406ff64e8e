package factor

import (
	"fmt"
	"testing"

	"repro/internal/sparse"
)

// Benchmarks of the factorisation subsystem hot paths, sized to the largest
// blocks of the E6 scale-sparse experiment: the 128×128 Poisson grid
// (16384 unknowns, the largest quick size) and the 128×128 saddle system
// (16512 unknowns, the non-SPD leg). Run with:
//
//	go test ./internal/factor -bench . -benchtime 10x
//
// BenchmarkAMDOrdering measures ordering time alone — the supervariable
// detection and mass elimination exist to shrink exactly this number on the
// largest E6 blocks.

func benchSystems() map[string]sparse.System {
	return map[string]sparse.System{
		"poisson-128": sparse.Poisson2D(128, 128, 0.05),
		"saddle-128":  sparse.SaddlePoisson2D(128, 128, 1e-2),
	}
}

func BenchmarkAMDOrdering(b *testing.B) {
	for name, sys := range benchSystems() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if p := AMD(sys.A); len(p) != sys.Dim() {
					b.Fatal("bad permutation")
				}
			}
		})
	}
}

func BenchmarkFactorScalarVsSupernodal(b *testing.B) {
	grid := sparse.Poisson2D(128, 128, 0.05)
	saddle := sparse.SaddlePoisson2D(128, 128, 1e-2)
	cases := []struct {
		name string
		run  func() error
	}{
		{"scalar-cholesky/poisson-128", func() error { _, err := NewCholesky(grid.A, OrderAuto); return err }},
		{"supernodal-cholesky/poisson-128", func() error { _, err := NewSupernodal(grid.A, OrderAuto, ModeCholesky); return err }},
		{"supernodal-ldlt/saddle-128", func() error { _, err := NewSupernodal(saddle.A, OrderAuto, ModeLDLT); return err }},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := tc.run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSolve(b *testing.B) {
	grid := sparse.Poisson2D(128, 128, 0.05)
	for _, backend := range []string{SparseCholesky, SparseSupernodal} {
		s, err := New(backend, grid.A)
		if err != nil {
			b.Fatal(err)
		}
		x := sparse.NewVec(grid.Dim())
		b.Run(fmt.Sprintf("%s/poisson-128", backend), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.SolveTo(x, grid.B)
			}
		})
	}
}
