package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/factor"
	"repro/internal/partition"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// condensedFixture is one seeded random subdomain — an SPD (or, on request,
// symmetric indefinite) block of n unknowns whose first k are ports, every
// port the end of one to three lines so several ends share a port — beside an
// independent dense-LU factorisation of its local matrix to solve (5.9) from
// scratch with.
type condensedFixture struct {
	sub *Subdomain
	ref factor.LocalSolver
	rng *rand.Rand
}

func newCondensedFixture(t *testing.T, seed int64, n, k int, indefinite bool) *condensedFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sys := sparse.RandomSPD(n, 0.3, seed)
	if indefinite {
		// Flip the last diagonal entry far negative: still symmetric and
		// nonsingular, no longer positive definite.
		d := sparse.NewVec(n)
		d[n-1] = -3 * sys.A.At(n-1, n-1)
		sys.A = sys.A.AddDiag(d)
	}
	ps := &partition.Subdomain{Part: 0, NumPorts: k, A: sys.A, B: sys.B}
	for i := 0; i < n; i++ {
		ps.GlobalIdx = append(ps.GlobalIdx, i)
	}
	var links []partition.TwinLink
	var z []float64
	for port := 0; port < k; port++ {
		for e := 1 + rng.Intn(3); e > 0; e-- {
			links = append(links, partition.TwinLink{ID: len(links), Global: port, PartA: 0, PortA: port, PartB: 1 + rng.Intn(3)})
			z = append(z, 0.1+2*rng.Float64())
		}
	}
	sub, err := NewSubdomain(ps, links, z, factor.Settings{})
	if err != nil {
		t.Fatalf("seed %d n=%d k=%d: NewSubdomain: %v", seed, n, k, err)
	}
	ref, err := factor.New(factor.DenseLU, sub.localA)
	if err != nil {
		t.Fatalf("seed %d n=%d k=%d: reference LU: %v", seed, n, k, err)
	}
	return &condensedFixture{sub: sub, ref: ref, rng: rng}
}

// fullSolve is the from-scratch solution of (5.9) for the given incoming waves.
func (f *condensedFixture) fullSolve(incoming []float64) sparse.Vec {
	s := f.sub
	rhs := s.baseRHS.Clone()
	for e, end := range s.ends {
		rhs[end.Port] += incoming[e] / end.Z
	}
	return factor.Solve(f.ref, rhs)
}

// randomWaves overwrites a random subset of the incoming waves.
func (f *condensedFixture) randomWaves() {
	for e := range f.sub.incoming {
		if f.rng.Intn(3) > 0 {
			f.sub.incoming[e] = 4 * f.rng.NormFloat64()
		}
	}
}

func relErr(got, want sparse.Vec) float64 {
	scale := want.NormInf()
	if scale == 0 {
		scale = 1
	}
	return got.MaxAbsDiff(want) / scale
}

// TestCondensedSolveMatchesFullSolve is the property the port path rests on:
// over seeded random blocks with k from 0 to n and random wave sequences, the
// port potentials, the reported boundary change and the outgoing waves after
// every Solve are those of a from-scratch full solve (1e-12 relative), and X —
// asked for after any number of Solves, before or after the incoming waves
// were overwritten again, as engine.sweep does — is the full solution for the
// right-hand side of the latest Solve, computed at most once per Solve.
func TestCondensedSolveMatchesFullSolve(t *testing.T) {
	shapes := [][2]int{{1, 0}, {1, 1}, {5, 0}, {5, 2}, {5, 5}, {12, 7}, {27, 8}, {27, 17}, {30, 30}}
	for seed := int64(1); seed <= 4; seed++ {
		for _, nk := range shapes {
			n, k := nk[0], nk[1]
			f := newCondensedFixture(t, seed, n, k, false)
			s := f.sub
			if s.ports == nil {
				t.Fatalf("seed %d n=%d k=%d: an SPD block was factorised by %q, which has no port factor", seed, n, k, s.solver.Backend())
			}
			if x := s.X(); x.NormInf() != 0 || s.interiorSolves != 0 {
				t.Fatalf("seed %d n=%d k=%d: before any Solve X is %v after %d interior solves, want the zero state of (5.6)", seed, n, k, x, s.interiorSolves)
			}
			prev := sparse.NewVec(k)
			for step := 0; step < 12; step++ {
				f.randomWaves()
				solvedFor := append([]float64(nil), s.incoming...)
				want := f.fullSolve(solvedFor)
				change := s.Solve()

				ports := sparse.Vec(s.x[:k])
				if d := relErr(ports, want[:k]); d > 1e-12 {
					t.Fatalf("seed %d n=%d k=%d step %d: ports off the full solve by %.3g relative", seed, n, k, step, d)
				}
				if wantChange := want[:k].MaxAbsDiff(prev); math.Abs(change-wantChange) > 1e-12*(1+want.NormInf()) {
					t.Errorf("seed %d n=%d k=%d step %d: boundary change %g, the full solve's is %g", seed, n, k, step, change, wantChange)
				}
				copy(prev, ports)
				for e, end := range s.ends {
					if w, ww := s.OutgoingWave(e), 2*want[end.Port]-solvedFor[e]; math.Abs(w-ww) > 1e-12*(1+want.NormInf()) {
						t.Errorf("seed %d n=%d k=%d step %d: outgoing wave %d is %g, want %g", seed, n, k, step, e, w, ww)
					}
				}
				if step%3 == 1 {
					continue // X must cope with Solves it was never asked about
				}
				if step%3 == 2 {
					f.randomWaves() // the exchange that follows a sweep's solve
				}
				before := s.interiorSolves
				sentPorts := ports.Clone()
				if d := relErr(s.X(), want); d > 1e-12 {
					t.Fatalf("seed %d n=%d k=%d step %d: X off the full solve of the latest Solve's right-hand side by %.3g relative", seed, n, k, step, d)
				}
				s.X()
				if s.interiorSolves != before+1 {
					t.Errorf("seed %d n=%d k=%d step %d: two X calls after one Solve cost %d interior solves, want 1", seed, n, k, step, s.interiorSolves-before)
				}
				if !ports.Equal(sentPorts, 0) {
					t.Errorf("seed %d n=%d k=%d step %d: X changed the port potentials the waves were computed from", seed, n, k, step)
				}
			}
		}
	}
}

// TestCondensedSnapshotCarriesTheStaleInterior: a restart from a snapshot —
// the incoming waves the part held at it, the recovery state a DES
// crash-restart and a dist failover both solve from — is a Refactor, the
// snapshot's waves and one Solve. X is then the full solution of the
// snapshot's waves, and the next Solve repeats, bit for bit, what the
// uncrashed subdomain computed.
//
// On the ports-only path nothing may move a bit: per part of the 2×2 tear of
// grid65, X after more Solves, X calls, a Refactor and the restart's Solve is,
// bit for bit, X as it was at the snapshot, and that X is the full
// supernodal solve of the snapshotted right-hand side, ports included. The
// remembered right-hand side must live apart from the scratch vectors X and
// Refactor write.
func TestCondensedSnapshotCarriesTheStaleInterior(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		f := newCondensedFixture(t, seed, 27, 11, false)
		s := f.sub
		f.randomWaves()
		atSnap := append([]float64(nil), s.incoming...)
		s.Solve()
		f.randomWaves()
		next := append([]float64(nil), s.incoming...)
		s.Solve()
		wantPorts := append([]float64(nil), s.x[:s.numPorts]...)
		for i := 0; i < 3; i++ {
			f.randomWaves()
			s.Solve()
			s.X()
		}

		if err := s.Refactor(); err != nil {
			t.Fatal(err)
		}
		copy(s.incoming, atSnap)
		s.Solve()
		if d := relErr(s.X(), f.fullSolve(atSnap)); d > 1e-12 {
			t.Errorf("seed %d: X after the restart off the snapshotted solve by %.3g relative", seed, d)
		}
		copy(s.incoming, next)
		s.Solve()
		for p, u := range wantPorts {
			if math.Float64bits(s.x[p]) != math.Float64bits(u) {
				t.Fatalf("seed %d: port %d after restart+Solve is %x, the uncrashed subdomain had %x", seed, p, math.Float64bits(s.x[p]), math.Float64bits(u))
			}
		}
	}
	t.Run("grid65-supernodal", func(t *testing.T) {
		_, subs := grid65Subdomains(t)
		rng := rand.New(rand.NewSource(65))
		waves := func(s *Subdomain) {
			for e := range s.incoming {
				s.incoming[e] = rng.NormFloat64()
			}
		}
		for i, s := range subs {
			waves(s)
			atSnap := append([]float64(nil), s.incoming...)
			s.Solve()
			want := s.X().Clone()
			rhs := s.baseRHS.Clone()
			for e, end := range s.ends {
				rhs[end.Port] += s.invZ[e] * atSnap[e] // as Solve forms (5.9)
			}
			if full := factor.Solve(s.solver, rhs); !want.Equal(full, 0) {
				t.Fatalf("part %d: X after a ports-only Solve is not the full solve bit for bit", i)
			}
			for j := 0; j < 3; j++ {
				waves(s)
				s.Solve()
				if j == 1 {
					s.X()
				}
			}
			if err := s.Refactor(); err != nil {
				t.Fatal(err)
			}
			copy(s.incoming, atSnap)
			s.Solve()
			before := s.interiorSolves
			if got := s.X(); !got.Equal(want, 0) || s.interiorSolves != before+1 {
				t.Errorf("part %d: X after Solves, Refactor and the restart's Solve differs from the snapshotted X (%d interior solves)", i, s.interiorSolves-before)
			}
		}
	})
}

// grid65Subdomains tears grid:rows=65,cols=65,seed=7 2×2, the benchmark's
// bigblock problem: four parts of ≈ 1 100 unknowns, every one factorised by
// auto's sparse-supernodal backend, which gives each a ports-only solve.
func grid65Subdomains(t *testing.T) (*Problem, []*Subdomain) {
	t.Helper()
	prob, err := GridProblem(sparse.RandomGridSPD(65, 65, 7), 65, 65, 2, 2, topology.Uniform(4, 10, "uniform"))
	if err != nil {
		t.Fatal(err)
	}
	subs, _, err := prob.BuildSubdomains(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range subs {
		if s.portsOnly == nil || s.solver.Backend() != factor.SparseSupernodal {
			t.Fatalf("part %d: factorised by %q, ports-only solve %v; want sparse-supernodal's", i, s.solver.Backend(), s.portsOnly != nil)
		}
	}
	return prob, subs
}

// TestCondensedFallbackSolvesInFull: a symmetric indefinite block falls back
// to dense-lu, which has no port factor, and goes on solving the whole system
// on every activation: same answers, X free.
func TestCondensedFallbackSolvesInFull(t *testing.T) {
	f := newCondensedFixture(t, 3, 14, 6, true)
	s := f.sub
	if s.ports != nil || s.solver.Backend() != factor.DenseLU {
		t.Fatalf("an indefinite block was factorised by %q with a port factor (%v)", s.solver.Backend(), s.ports != nil)
	}
	for step := 0; step < 6; step++ {
		f.randomWaves()
		want := f.fullSolve(s.incoming)
		s.Solve()
		if d := relErr(s.X(), want); d > 1e-12 {
			t.Errorf("step %d: full-path solution off the reference by %.3g relative", step, d)
		}
	}
	if s.interiorSolves != 0 {
		t.Errorf("the full path performed %d interior solves", s.interiorSolves)
	}
}

// TestCondensedSweepExchangeKeepsX: engine.sweep overwrites every incoming
// wave right after solving, so X afterwards must answer for the waves the
// sweep solved with, not the ones it left behind.
func TestCondensedSweepExchangeKeepsX(t *testing.T) {
	prob, err := GridProblem(sparse.RandomGridSPD(13, 13, 169), 13, 13, 3, 3, topology.Uniform(9, 10, "uniform"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Engine: EngineVTM, MaxIterations: 10}
	cfg.normalize()
	eng, err := newEngine(prob, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]factor.LocalSolver, len(eng.subs))
	for i, s := range eng.subs {
		if s.ports == nil {
			t.Fatalf("part %d has no port factor", i)
		}
		if refs[i], err = factor.New(factor.DenseLU, s.localA); err != nil {
			t.Fatal(err)
		}
	}
	for it := 0; it < 5; it++ {
		solvedFor := make([][]float64, len(eng.subs))
		for i, s := range eng.subs {
			solvedFor[i] = append([]float64(nil), s.incoming...)
		}
		eng.sweep(float64(it))
		for i, s := range eng.subs {
			f := condensedFixture{sub: s, ref: refs[i]}
			if d := relErr(s.X(), f.fullSolve(solvedFor[i])); d > 1e-12 {
				t.Errorf("sweep %d part %d: X off the solve the sweep performed by %.3g relative", it, i, d)
			}
		}
	}
}

// TestCondensedRunSolvesEachInteriorOnce is the cost claim without a clock:
// a fault-free DES run that nobody watches (no Exact, no Observer) performs,
// over its activations, exactly one interior solve per part — in finish — and
// the answer is the one the watched run assembles solve by solve. That holds
// on the dense port factors of the 3×3 tear of grid13 and on the supernodal
// ports-only solves of the 2×2 tear of grid65. sparse-cholesky parts take the
// full path and perform none.
func TestCondensedRunSolvesEachInteriorOnce(t *testing.T) {
	prob, err := GridProblem(sparse.RandomGridSPD(13, 13, 169), 13, 13, 3, 3, topology.Uniform(9, 10, "uniform"))
	if err != nil {
		t.Fatal(err)
	}
	big, _ := grid65Subdomains(t)
	for _, p := range []*Problem{prob, big} {
		checkOneInteriorSolvePerPart(t, p)
	}
	_, seng := runUnwatched(t, prob, Config{CommonOptions: CommonOptions{Factor: factor.Settings{Backend: factor.SparseCholesky}}})
	for i, s := range seng.subs {
		if s.ports != nil || s.portsOnly != nil || s.interiorSolves != 0 {
			t.Errorf("part %d under sparse-cholesky: port factor %v, ports-only solve %v, %d interior solves; want the full path", i, s.ports != nil, s.portsOnly != nil, s.interiorSolves)
		}
	}
}

// runUnwatched runs prob to 1e-9 on the DES engine under cfg and returns the
// result and the engine, whose subdomains count their interior solves.
func runUnwatched(t *testing.T, prob *Problem, cfg Config) (*Result, *engine) {
	t.Helper()
	cfg.Tol, cfg.MaxTime = 1e-9, 1e9
	cfg.normalize()
	eng, err := newEngine(prob, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.finish(eng.window(context.Background(), 0, cfg.MaxTime))
	if !res.Converged {
		t.Fatal("not converged")
	}
	return res, eng
}

// checkOneInteriorSolvePerPart runs prob unwatched and watched (Exact set)
// and compares interior solve counts and answers.
func checkOneInteriorSolvePerPart(t *testing.T, prob *Problem) {
	t.Helper()
	res, eng := runUnwatched(t, prob, Config{})
	for i, s := range eng.subs {
		if s.interiorSolves != 1 {
			t.Errorf("part %d: %d interior solves in a run of %d activations nobody watched, want 1", i, s.interiorSolves, res.Solves)
		}
	}
	exact := sparse.NewVec(prob.System.Dim())
	watched, weng := runUnwatched(t, prob, Config{CommonOptions: CommonOptions{Exact: exact}})
	total := 0
	for _, s := range weng.subs {
		total += s.interiorSolves
	}
	if watched.Solves != res.Solves || total != watched.Solves {
		t.Errorf("watched run: %d solves (unwatched %d), %d interior solves; want one per solve", watched.Solves, res.Solves, total)
	}
	for i := range res.X {
		if math.Float64bits(res.X[i]) != math.Float64bits(watched.X[i]) {
			t.Fatalf("X[%d] = %x unwatched, %x watched", i, math.Float64bits(res.X[i]), math.Float64bits(watched.X[i]))
		}
	}
}

// TestRefactorReusesTheAnalysis: a Refactor rebuilds a sparse subdomain's
// factor on the symbolic analysis its first build made — it orders nothing —
// and the rebuilt subdomain solves bit for bit as before. The parts are the
// benchmark's two sparse lanes: grid65's four sparse-supernodal blocks and
// the 4-part tear of spanner:n=1000's sparse-cholesky blocks.
func TestRefactorReusesTheAnalysis(t *testing.T) {
	_, subs := grid65Subdomains(t)
	src, err := sparse.ParseSource("spanner:n=1000,k=6,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := src.Build()
	if err != nil {
		t.Fatal(err)
	}
	prob, err := AutoProblem(sys, 4, topology.Uniform(4, 10, "uniform"))
	if err != nil {
		t.Fatal(err)
	}
	spanner, _, err := prob.BuildSubdomains(nil, "")
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range spanner {
		if s.solver.Backend() != factor.SparseCholesky {
			t.Fatalf("spanner part %d: factorised by %q, want sparse-cholesky", i, s.solver.Backend())
		}
	}
	rng := rand.New(rand.NewSource(41))
	for i, s := range append(subs, spanner...) {
		an := factor.AnalysisOf(s.solver)
		if an == nil {
			t.Fatalf("part %d: the %s factor carries no analysis", i, s.solver.Backend())
		}
		waves := make([]float64, len(s.incoming))
		for e := range waves {
			waves[e] = rng.NormFloat64()
		}
		copy(s.incoming, waves)
		s.Solve()
		want := s.X().Clone()
		if err := s.Refactor(); err != nil {
			t.Fatal(err)
		}
		if factor.AnalysisOf(s.solver) != an {
			t.Errorf("part %d: Refactor analysed the pattern again", i)
		}
		copy(s.incoming, waves)
		s.Solve()
		if got := s.X(); !got.Equal(want, 0) {
			t.Errorf("part %d: the refactorised subdomain solves differently", i)
		}
		for j := range want {
			if math.Float64bits(s.x[j]) != math.Float64bits(want[j]) {
				t.Fatalf("part %d: entry %d is %x after Refactor, %x before", i, j, math.Float64bits(s.x[j]), math.Float64bits(want[j]))
			}
		}
	}
}
