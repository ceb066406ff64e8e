package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/factor"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// buildAdjacencyMaps is Subdomain.buildAdjacency before it became one sort:
// the remote parts collected through a map, put in order by an insertion
// sort, and every end filed by a search of that list.
func buildAdjacencyMaps(ends []LinkEnd) (adjacent []int, endsByAdj [][]int) {
	seen := map[int]bool{}
	for _, e := range ends {
		if !seen[e.Remote] {
			seen[e.Remote] = true
			adjacent = append(adjacent, e.Remote)
		}
	}
	for i := 1; i < len(adjacent); i++ {
		for j := i; j > 0 && adjacent[j] < adjacent[j-1]; j-- {
			adjacent[j], adjacent[j-1] = adjacent[j-1], adjacent[j]
		}
	}
	endsByAdj = make([][]int, len(adjacent))
	for k, e := range ends {
		for i, r := range adjacent {
			if r == e.Remote {
				endsByAdj[i] = append(endsByAdj[i], k)
				break
			}
		}
	}
	return adjacent, endsByAdj
}

// TestAdjacencyMatchesMaps builds every subdomain of the tears TestTearGolden
// pins twice — from its links in ID order, as every engine does, and in a
// shuffled order, which NewSubdomain also takes — and compares the adjacent
// parts and the ends grouped towards each with the map-based build.
func TestAdjacencyMatchesMaps(t *testing.T) {
	grid := func(source string, nx, px int) func(*testing.T) *Problem {
		return func(t *testing.T) *Problem {
			src, err := sparse.ParseSource(source)
			if err != nil {
				t.Fatal(err)
			}
			sys, _, err := src.Build()
			if err != nil {
				t.Fatal(err)
			}
			p, err := GridProblem(sys, nx, nx, px, px, topology.Uniform(px*px, 10, "uniform"))
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	auto := func(source string) func(*testing.T) *Problem {
		return func(t *testing.T) *Problem { return sourceProblem(t, source, 4) }
	}
	paper := func(t *testing.T) *Problem {
		sys, res := paperTearing(t)
		p, err := NewProblem(sys, res, topology.TwoProcessorPaper(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	rng := rand.New(rand.NewSource(43))
	for _, tc := range []struct {
		name    string
		problem func(*testing.T) *Problem
	}{
		{"ring9-grid13", grid("grid:rows=13,cols=13,seed=169", 13, 3)},
		{"bigblock-grid65", grid("grid:rows=65,cols=65,seed=7", 65, 2)},
		{"spanner-lsg4", auto("spanner:n=1000,k=6,seed=1")},
		{"grid17-2x2", grid("grid:rows=17,cols=17,seed=3", 17, 2)},
		{"saddle-lsg4", auto("saddle:")},
		{"example-4.1", paper},
	} {
		p := tc.problem(t)
		zs, err := p.Impedances(nil)
		if err != nil {
			t.Fatal(err)
		}
		for part, ps := range p.Partition.Subdomains {
			links := slices.Clone(p.Partition.LinksOfPart(part))
			for _, order := range []string{"in ID order", "shuffled"} {
				if order == "shuffled" {
					rng.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
				}
				sd, err := NewSubdomain(ps, links, zs, factor.Settings{})
				if err != nil {
					t.Fatalf("%s part %d: %v", tc.name, part, err)
				}
				adjacent, endsByAdj := buildAdjacencyMaps(sd.Ends())
				if !slices.Equal(sd.AdjacentParts(), adjacent) {
					t.Fatalf("%s part %d, links %s: adjacent parts %v, the maps say %v", tc.name, part, order, sd.AdjacentParts(), adjacent)
				}
				for i := range adjacent {
					if got := sd.AdjacentEnds(i); !slices.Equal(got, endsByAdj[i]) {
						t.Errorf("%s part %d, links %s: ends towards part %d are %v, the maps say %v", tc.name, part, order, adjacent[i], got, endsByAdj[i])
					}
				}
			}
		}
	}
}
