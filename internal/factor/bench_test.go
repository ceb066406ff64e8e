package factor

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dtl"
	"repro/internal/graph"
	"repro/internal/partition"
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

// BenchmarkRCM times the RCM ordering on a 128² grid and on two patterns of
// 10⁵ vertices made of many components — isolated vertices, and small paths,
// cliques and stars — where a root search that rescans every vertex per
// component would be quadratic.
func BenchmarkRCM(b *testing.B) {
	for _, tc := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"poisson-128", sparse.Poisson2D(128, 128, 0.05).A},
		{"isolated-1e5", sparse.Identity(100000)},
		{"components-1e5", componentsPattern(100000, 1)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if p := RCM(tc.a); len(p) != tc.a.Rows() {
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
		{"scalar-cholesky/poisson-128", func() error { _, err := newCholesky(grid.A, OrderAuto); return err }},
		{"supernodal-cholesky/poisson-128", func() error { _, err := newSupernodal(grid.A, OrderAuto, ModeCholesky); return err }},
		{"supernodal-ldlt/saddle-128", func() error { _, err := newSupernodal(saddle.A, OrderAuto, ModeLDLT); return err }},
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

// lanePart is one local system of a benchmark lane torn with EVS: the part's
// matrix with its lines' 1/Z on the port diagonal (eq. 5.9,
// dtl.DiagScaled{Alpha: 1}), its base right-hand side and its port count.
type lanePart struct {
	a     *sparse.CSR
	b     sparse.Vec
	ports int
}

// laneParts builds the system of the source spec and tears it as the lane
// does: into px×py grid blocks, or, when nparts > 0, into nparts level sets.
func laneParts(tb testing.TB, spec string, px, py, nparts int) []lanePart {
	src, err := sparse.ParseSource(spec)
	if err != nil {
		tb.Fatal(err)
	}
	sys, hint, err := src.Build()
	if err != nil {
		tb.Fatal(err)
	}
	g, err := graph.FromSystem(sys.A, sys.B)
	if err != nil {
		tb.Fatal(err)
	}
	var assign partition.Assignment
	if nparts > 0 {
		assign = partition.LevelSetGrow(g, nparts)
	} else {
		assign = partition.GridBlocks(hint.NX, hint.NY, px, py)
	}
	res, err := partition.EVS(g, assign, partition.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	z, err := dtl.Assign(res, dtl.DiagScaled{Alpha: 1})
	if err != nil {
		tb.Fatal(err)
	}
	parts := make([]lanePart, len(res.Subdomains))
	for i, sub := range res.Subdomains {
		diag := sparse.NewVec(sub.Dim())
		for _, l := range res.Links {
			if l.PartA == i {
				diag[l.PortA] += 1 / z[l.ID]
			}
			if l.PartB == i {
				diag[l.PortB] += 1 / z[l.ID]
			}
		}
		parts[i] = lanePart{a: sub.A.AddDiag(diag), b: sub.B, ports: sub.NumPorts}
	}
	return parts
}

// bigblockParts are the four parts of the benchmark's bigblock-grid65 lane,
// the 2×2 tear of grid:rows=65,cols=65,seed=7.
func bigblockParts(tb testing.TB) []lanePart {
	return laneParts(tb, "grid:rows=65,cols=65,seed=7", 2, 2, 0)
}

// BenchmarkAnalyze times the symbolic analysis of every part of the two
// sparse lanes as the auto backend runs it: bigblock-grid65's four parts
// under RCM with their supernode partitions, spanner-lsg4's four under AMD.
func BenchmarkAnalyze(b *testing.B) {
	for _, lane := range []struct {
		name           string
		spec           string
		px, py, nparts int
		supernodal     bool
	}{
		{"bigblock", "grid:rows=65,cols=65,seed=7", 2, 2, 0, true},
		{"spanner", "spanner:n=1000,k=6,seed=1", 0, 0, 4, false},
	} {
		parts := laneParts(b, lane.spec, lane.px, lane.py, lane.nparts)
		b.Run(lane.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, p := range parts {
					an, err := Analyze(p.a, OrderAuto)
					if err != nil {
						b.Fatal(err)
					}
					if lane.supernodal {
						an.supernodes()
					}
				}
			}
		})
	}
}

// BenchmarkSolve times one solve of a factor: SolveTo on a 128² Poisson
// grid, and the local solve of every part of the benchmark's three lanes as
// the auto backend factorises it. On each of bigblock-grid65's four
// sparse-supernodal parts that is the full SolveTo beside the ports-only
// solve an activation runs; the ports-only arm reports its closure:
// supernodes in it, of all, and the share of the stored factor entries they
// hold. On spanner-lsg4's four sparse-cholesky parts an activation is the
// full SolveTo, and on ring9-grid13's nine dense-cholesky parts the port
// solve through the Schur complement's factor (SolvePorts).
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
	for i, p := range bigblockParts(b) {
		f, err := Settings{}.NewPorts(p.a, p.ports)
		if err != nil {
			b.Fatal(err)
		}
		sn := f.(*Supernodal)
		po := sn.PortsOnly(p.b)
		x, u := sparse.NewVec(p.a.Rows()), sparse.NewVec(p.ports)
		b.Run(fmt.Sprintf("bigblock/part%d/full", i), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sn.SolveTo(x, p.b)
			}
		})
		b.Run(fmt.Sprintf("bigblock/part%d/ports-only", i), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				po.SolveTo(u, p.b)
			}
			in, entries := 0, 0
			for s := 0; s < sn.ns; s++ {
				if sn.closure[s] {
					in++
					w, ld := int(sn.sfirst[s+1]-sn.sfirst[s]), int(sn.rx[s+1]-sn.rx[s])
					entries += w*ld - w*(w-1)/2
				}
			}
			b.ReportMetric(float64(in), "closure-sn")
			b.ReportMetric(float64(sn.ns), "sn")
			b.ReportMetric(float64(entries)/float64(sn.NNZL()), "entry-share")
		})
		first, last := slices.Min(sn.portPos), slices.Max(sn.portPos)
		b.Logf("part %d: n=%d k=%d ordering %v, ports at permuted columns %d..%d", i, p.a.Rows(), p.ports, sn.Ordering(), first, last)
	}
	for i, p := range laneParts(b, "spanner:n=1000,k=6,seed=1", 0, 0, 4) {
		f, err := Settings{}.NewPorts(p.a, p.ports)
		if err != nil {
			b.Fatal(err)
		}
		if f.Backend() != SparseCholesky {
			b.Fatalf("spanner part %d: auto picked %s, the lane runs sparse-cholesky", i, f.Backend())
		}
		x := sparse.NewVec(p.a.Rows())
		b.Run(fmt.Sprintf("spanner/part%d/full", i), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f.SolveTo(x, p.b)
			}
		})
	}
	for i, p := range laneParts(b, "grid:rows=13,cols=13,seed=169", 3, 3, 0) {
		f, err := Settings{}.NewPorts(p.a, p.ports)
		if err != nil {
			b.Fatal(err)
		}
		ps, ok := f.(PortSolver)
		if !ok {
			b.Fatalf("ring9 part %d: auto picked %s, the lane runs a dense-cholesky port solver", i, f.Backend())
		}
		d, u := p.b[:p.ports].Clone(), sparse.NewVec(p.ports)
		b.Run(fmt.Sprintf("ring9/part%d/ports", i), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ps.SolvePorts(u, d)
			}
		})
	}
}
