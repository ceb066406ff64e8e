package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// linksOfPartScan is Result.LinksOfPart before EVS kept the table: a scan of
// every link on every call.
func linksOfPartScan(r *Result, part int) []TwinLink {
	var out []TwinLink
	for _, l := range r.Links {
		if l.PartA == part || l.PartB == part {
			out = append(out, l)
		}
	}
	return out
}

// adjacentPartsMaps is Result.AdjacentParts before EVS kept the table: one
// map per part on every call, sorted into a list.
func adjacentPartsMaps(r *Result) [][]int {
	sets := make([]map[int]bool, r.NumParts())
	for i := range sets {
		sets[i] = make(map[int]bool)
	}
	for _, l := range r.Links {
		sets[l.PartA][l.PartB] = true
		sets[l.PartB][l.PartA] = true
	}
	out := make([][]int, r.NumParts())
	for i, s := range sets {
		for p := range s {
			out[i] = append(out[i], p)
		}
		slices.Sort(out[i])
	}
	return out
}

// checkPartTables compares EVS's per-part tables with the scans they replaced,
// element by element, and holds the accessors to no work per call.
func checkPartTables(t *testing.T, name string, r *Result) {
	t.Helper()
	adj, want := r.AdjacentParts(), adjacentPartsMaps(r)
	if len(adj) != len(want) {
		t.Fatalf("%s: AdjacentParts has %d parts, the maps %d", name, len(adj), len(want))
	}
	for p := range want {
		if !slices.Equal(adj[p], want[p]) {
			t.Errorf("%s: part %d adjacent to %v, the maps say %v", name, p, adj[p], want[p])
		}
		if got, want := r.LinksOfPart(p), linksOfPartScan(r, p); !slices.Equal(got, want) {
			t.Errorf("%s: LinksOfPart(%d) = %v, the scan %v", name, p, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		r.AdjacentParts()
		for p := range r.NumParts() {
			r.LinksOfPart(p)
		}
	}); allocs != 0 {
		t.Errorf("%s: the per-part tables allocate %.0f objects per call", name, allocs)
	}
}

// TestPartTablesMatchScans checks the tables on TestTearGolden's tears and on
// random tears: grid blocks (corner vertices split three and four ways,
// chained links), level-set growth on random sparse systems (parts that
// border no other, or several through one vertex) and Poisson strips torn
// into one part per vertex.
func TestPartTablesMatchScans(t *testing.T) {
	for _, tc := range goldenTears(t) {
		_, r := tc.tear(t)
		checkPartTables(t, tc.name, r)
	}
	rng := rand.New(rand.NewSource(43))
	for trial := range 40 {
		var (
			sys    sparse.System
			assign func(g *graph.Electric) Assignment
			name   string
		)
		switch trial % 3 {
		case 0:
			nx, ny := 2+rng.Intn(12), 2+rng.Intn(12)
			px, py := 1+rng.Intn(nx), 1+rng.Intn(ny)
			sys = sparse.Poisson2D(nx, ny, 0.05)
			assign = func(*graph.Electric) Assignment { return GridBlocks(nx, ny, px, py) }
			name = fmt.Sprintf("poisson %dx%d in %dx%d blocks", nx, ny, px, py)
		case 1:
			n, parts := 4+rng.Intn(60), 1+rng.Intn(8)
			sys = sparse.RandomSPD(n, 0.02+0.2*rng.Float64(), rng.Int63())
			parts = min(parts, n)
			assign = func(g *graph.Electric) Assignment { return LevelSetGrow(g, parts) }
			name = fmt.Sprintf("random n=%d in %d parts", n, parts)
		default:
			ny := 1 + rng.Intn(4)
			sys = sparse.Poisson2D(16, ny, 0.05)
			assign = func(*graph.Electric) Assignment { return GridBlocks(16, ny, 16, ny) }
			name = fmt.Sprintf("poisson 16x%d point blocks", ny)
		}
		g, err := graph.FromSystem(sys.A, sys.B)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r, err := EVS(g, assign(g), Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkPartTables(t, name, r)
	}
}
