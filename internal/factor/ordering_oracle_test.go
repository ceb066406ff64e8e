package factor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sparse"
)

// patternCase is one symmetric sparsity pattern the ordering and analysis
// oracles run on.
type patternCase struct {
	name string
	a    *sparse.CSR
}

// randomPattern is an n-vertex symmetric pattern with about deg·n/2
// off-diagonal pairs placed uniformly at random, every diagonal present
// and dominant (so the matrix is SPD).
func randomPattern(n int, deg float64, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4+2*deg)
	}
	if n > 1 {
		for e := 0; e < int(deg*float64(n)/2); e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				coo.AddSym(i, j, -rng.Float64())
			}
		}
	}
	return coo.ToCSR()
}

// componentsPattern is a pattern of many components: isolated vertices,
// paths, small cliques and stars, interleaved by a seeded shuffle so no
// component is contiguous in the natural order.
func componentsPattern(n int, seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	label := rng.Perm(n)
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, float64(n))
	}
	for v := 0; v < n; {
		size := 1 + rng.Intn(6)
		if v+size > n {
			size = n - v
		}
		kind := rng.Intn(4)
		for i := v; i < v+size; i++ {
			for j := i + 1; j < v+size; j++ {
				if kind == 1 && j == i+1 || kind == 2 || kind == 3 && i == v {
					coo.AddSym(label[i], label[j], -1)
				}
			}
		}
		v += size
	}
	return coo.ToCSR()
}

// starPattern is a hub joined to every other vertex, plus a ring through
// the leaves when ring is set.
func starPattern(n int, ring bool) *sparse.CSR {
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, float64(2*n))
		if i > 0 {
			coo.AddSym(0, i, -1)
			if ring && i+1 < n {
				coo.AddSym(i, i+1, -1)
			}
		}
	}
	return coo.ToCSR()
}

// orderingCases are the patterns TestOrderingsMatchOracle compares on:
// the irregular set, random patterns across sizes and densities, saddle,
// star, grid and many-component patterns, and every part of the three
// gated benchmark lanes.
func orderingCases(tb testing.TB) []patternCase {
	var cases []patternCase
	for name, a := range irregularTestMatrices() {
		cases = append(cases, patternCase{name, a})
	}
	slices.SortFunc(cases, func(x, y patternCase) int {
		if x.name < y.name {
			return -1
		}
		return 1
	})
	seed := int64(1)
	for _, n := range []int{1, 2, 3, 7, 20, 60, 150, 400} {
		for _, deg := range []float64{0.5, 2, 4, 8, 16} {
			for rep := 0; rep < 3; rep++ {
				cases = append(cases, patternCase{fmt.Sprintf("random-%d-deg%g-%d", n, deg, seed), randomPattern(n, deg, seed)})
				seed++
			}
		}
	}
	for _, n := range []int{100, 300, 700} {
		for _, dens := range []float64{0.005, 0.02, 0.06} {
			cases = append(cases, patternCase{fmt.Sprintf("random-spd-%d-%g", n, dens), sparse.RandomSPD(n, dens, int64(n)).A})
		}
	}
	for _, nx := range []int{4, 9, 16} {
		cases = append(cases, patternCase{fmt.Sprintf("saddle-%d", nx), sparse.SaddlePoisson2D(nx, nx, 1e-2).A})
		cases = append(cases, patternCase{fmt.Sprintf("poisson-%d", nx), sparse.Poisson2D(nx, nx+3, 0.05).A})
		cases = append(cases, patternCase{fmt.Sprintf("randgrid-%d", nx), sparse.RandomGridSPD(nx, nx, int64(nx)).A})
	}
	cases = append(cases,
		patternCase{"poisson3d-6", sparse.Poisson3D(6, 6, 6, 0.05).A},
		patternCase{"shuffled-grid-12x15", shuffledGrid(12, 15, 5)},
		patternCase{"star-60", starPattern(60, false)},
		patternCase{"star-ring-60", starPattern(60, true)},
		patternCase{"identity-40", sparse.Identity(40)},
		patternCase{"isolated-5000", sparse.Identity(5000)},
		patternCase{"empty", sparse.NewCOO(0, 0).ToCSR()},
	)
	for _, n := range []int{10, 200, 2000} {
		for s := int64(1); s <= 3; s++ {
			cases = append(cases, patternCase{fmt.Sprintf("components-%d-%d", n, s), componentsPattern(n, s)})
		}
	}
	for _, lane := range []struct {
		spec           string
		px, py, nparts int
	}{
		{"grid:rows=13,cols=13,seed=169", 3, 3, 0},
		{"grid:rows=65,cols=65,seed=7", 2, 2, 0},
		{"spanner:n=1000,k=6,seed=1", 0, 0, 4},
	} {
		for i, p := range laneParts(tb, lane.spec, lane.px, lane.py, lane.nparts) {
			cases = append(cases, patternCase{fmt.Sprintf("%s/part%d", lane.spec, i), p.a})
		}
	}
	return cases
}

// checkOrderingsMatchOracle fails unless AMD (with its statistics) and RCM
// give the permutations their oracles give on a.
func checkOrderingsMatchOracle(t *testing.T, name string, a *sparse.CSR) {
	t.Helper()
	got, gotStats := amdOrder(a)
	want, wantStats := amdOrderOracle(a)
	if !slices.Equal(got, want) {
		t.Errorf("%s: AMD permutation differs from the oracle's\n got %v\nwant %v", name, got, want)
	}
	if gotStats != wantStats {
		t.Errorf("%s: amdStats %+v, oracle %+v", name, gotStats, wantStats)
	}
	if got, want := RCM(a), rcmOracle(a); !slices.Equal(got, want) {
		t.Errorf("%s: RCM permutation differs from the oracle's\n got %v\nwant %v", name, got, want)
	}
}

// TestOrderingsMatchOracle: AMD's indexed heap and arenas and RCM's
// one-pass root cursor give exactly the permutations of the code they
// replaced, on every pattern of orderingCases.
func TestOrderingsMatchOracle(t *testing.T) {
	for _, tc := range orderingCases(t) {
		checkOrderingsMatchOracle(t, tc.name, tc.a)
	}
}

// fuzzPattern decodes a symmetric pattern: the first byte sets the order
// (1..64), every following pair of bytes one off-diagonal pair.
func fuzzPattern(data []byte) *sparse.CSR {
	n := 1
	if len(data) > 0 {
		n += int(data[0]) % 64
		data = data[1:]
	}
	coo := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, float64(n)+1)
	}
	for k := 0; k+1 < len(data); k += 2 {
		i, j := int(data[k])%n, int(data[k+1])%n
		if i != j {
			coo.AddSym(i, j, -float64(1+int(data[k])%3)/float64(n))
		}
	}
	return coo.ToCSR()
}

// FuzzOrderings: on any symmetric pattern AMD and RCM equal their oracles.
func FuzzOrderings(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8})
	f.Add([]byte{40, 0, 1, 0, 2, 0, 3, 0, 4, 5, 6, 7, 8, 9, 10, 30, 31, 31, 32, 32, 30})
	f.Add([]byte{63, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOrderingsMatchOracle(t, "fuzz", fuzzPattern(data))
	})
}
