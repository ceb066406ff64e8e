package topology

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndSetLink(t *testing.T) {
	topo := New(3, "triangle")
	if topo.N() != 3 || topo.Name() != "triangle" {
		t.Fatalf("N=%d Name=%q", topo.N(), topo.Name())
	}
	topo.SetLink(0, 1, 5)
	if !topo.HasDirectLink(0, 1) {
		t.Errorf("link 0->1 missing")
	}
	if topo.HasDirectLink(1, 0) {
		t.Errorf("SetLink must only set one direction")
	}
	if got := topo.LinkDelay(0, 1); got != 5 {
		t.Errorf("LinkDelay = %g, want 5", got)
	}
	if got := topo.LinkDelay(1, 0); !math.IsInf(got, 1) {
		t.Errorf("missing link delay = %g, want +Inf", got)
	}
}

func TestSetLinkPairAsymmetric(t *testing.T) {
	topo := New(2, "pair")
	topo.SetLinkPair(0, 1, 6.7, 2.9)
	if topo.Delay(0, 1) != 6.7 || topo.Delay(1, 0) != 2.9 {
		t.Errorf("asymmetric delays = %g / %g, want 6.7 / 2.9", topo.Delay(0, 1), topo.Delay(1, 0))
	}
}

func TestDelayUsesShortestPath(t *testing.T) {
	// 0 -> 1 -> 2 with delays 3 and 4, plus a slow direct link 0 -> 2 of 100:
	// the end-to-end delay must be the cheaper store-and-forward path (7).
	topo := New(3, "path")
	topo.SetLink(0, 1, 3)
	topo.SetLink(1, 2, 4)
	topo.SetLink(0, 2, 100)
	if got := topo.Delay(0, 2); got != 7 {
		t.Errorf("Delay(0,2) = %g, want 7 (shortest path)", got)
	}
	// The direct link delay is still reported as 100.
	if got := topo.LinkDelay(0, 2); got != 100 {
		t.Errorf("LinkDelay(0,2) = %g, want 100", got)
	}
}

func TestDelayPanicsWhenUnreachable(t *testing.T) {
	topo := New(2, "disconnected")
	defer func() {
		if recover() == nil {
			t.Errorf("Delay to an unreachable processor must panic")
		}
	}()
	topo.Delay(0, 1)
}

func TestUniformTopology(t *testing.T) {
	topo := Uniform(4, 2.5, "uniform")
	if topo.N() != 4 {
		t.Fatalf("N = %d", topo.N())
	}
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			if a == b {
				continue
			}
			if got := topo.Delay(a, b); got != 2.5 {
				t.Errorf("Delay(%d,%d) = %g, want 2.5", a, b, got)
			}
		}
	}
	if len(topo.Links()) != 12 {
		t.Errorf("links = %d, want 12", len(topo.Links()))
	}
}

func TestUniformRingRejectDegenerate(t *testing.T) {
	cases := []struct {
		name  string
		build func()
	}{
		{"uniform n=0", func() { Uniform(0, 1, "u") }},
		{"uniform n=-3", func() { Uniform(-3, 1, "u") }},
		{"uniform delay=0", func() { Uniform(2, 0, "u") }},
		{"uniform delay<0", func() { Uniform(2, -1, "u") }},
		{"uniform delay=NaN", func() { Uniform(2, math.NaN(), "u") }},
		{"ring n=0", func() { Ring(0, 1) }},
		{"ring n=-1", func() { Ring(-1, 1) }},
		{"ring delay=0", func() { Ring(3, 0) }},
		{"ring delay<0", func() { Ring(3, -2) }},
		{"ring delay=NaN", func() { Ring(3, math.NaN()) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic instead of building a degenerate fabric", tc.name)
				}
			}()
			tc.build()
		})
	}
	// The single-processor machines themselves are fine: no links, no delays.
	if Uniform(1, 5, "solo").N() != 1 || Ring(1, 5).N() != 1 {
		t.Errorf("1-processor fabrics must still build")
	}
}

func TestRingTopology(t *testing.T) {
	topo := Ring(5, 3)
	// Neighbours are one hop, the node two steps away costs two hops.
	if topo.Delay(0, 1) != 3 || topo.Delay(1, 0) != 3 {
		t.Errorf("ring hop delay wrong")
	}
	if topo.Delay(0, 2) != 6 {
		t.Errorf("Delay(0,2) = %g, want 6", topo.Delay(0, 2))
	}
	// Going the short way around: 0 to 4 is one hop backwards.
	if topo.Delay(0, 4) != 3 {
		t.Errorf("Delay(0,4) = %g, want 3", topo.Delay(0, 4))
	}
}

func TestMeshStructure(t *testing.T) {
	topo := Mesh(3, 2, "mesh3x2", func(from, to int) float64 { return 1 })
	if topo.N() != 6 {
		t.Fatalf("N = %d, want 6", topo.N())
	}
	// Processor 1 = (1,0) has neighbours 0, 2 and 4; processor 0 has 2.
	if !topo.HasDirectLink(1, 0) || !topo.HasDirectLink(1, 2) || !topo.HasDirectLink(1, 4) {
		t.Errorf("mesh adjacency of processor 1 wrong")
	}
	if topo.HasDirectLink(0, 4) {
		t.Errorf("diagonal links must not exist")
	}
	if topo.HasDirectLink(2, 3) {
		t.Errorf("no wrap-around between row ends: 2 and 3 are not neighbours")
	}
	// Non-adjacent pairs route over the mesh: (0,0) to (2,1) is 3 hops.
	if got := topo.Delay(0, 5); got != 3 {
		t.Errorf("Delay(0,5) = %g, want 3", got)
	}
}

func TestTwoProcessorPaper(t *testing.T) {
	topo := TwoProcessorPaper()
	if topo.N() != 2 {
		t.Fatalf("N = %d", topo.N())
	}
	if topo.Delay(0, 1) != 6.7 || topo.Delay(1, 0) != 2.9 {
		t.Errorf("Example 5.1 delays = %g / %g, want 6.7 / 2.9", topo.Delay(0, 1), topo.Delay(1, 0))
	}
}

func TestMesh4x4PaperStatistics(t *testing.T) {
	topo := Mesh4x4Paper()
	if topo.N() != 16 {
		t.Fatalf("N = %d, want 16", topo.N())
	}
	st := topo.Stats()
	// A 4×4 mesh has 24 undirected = 48 directed links.
	if st.Count != 48 {
		t.Errorf("link count = %d, want 48", st.Count)
	}
	// The paper: delays between 10 and 99 ms, max/min about 9×, asymmetric.
	if st.Min < 10 || st.Max > 99.5 {
		t.Errorf("delay range [%g, %g] outside the paper's 10–99 ms", st.Min, st.Max)
	}
	if ratio := st.Max / st.Min; ratio < 5 || ratio > 11 {
		t.Errorf("max/min ratio = %g, want roughly 9", ratio)
	}
	if st.AsymmetryMax <= 1.5 {
		t.Errorf("the paper's mesh is direction-asymmetric, got max asymmetry %g", st.AsymmetryMax)
	}
	// Determinism: the platform of Fig. 11 must be identical across calls.
	again := Mesh4x4Paper()
	for _, l := range topo.Links() {
		if again.LinkDelay(l.From, l.To) != l.Delay {
			t.Errorf("Mesh4x4Paper is not deterministic")
			break
		}
	}
}

func TestMesh8x8PaperStatistics(t *testing.T) {
	topo := Mesh8x8Paper()
	if topo.N() != 64 {
		t.Fatalf("N = %d, want 64", topo.N())
	}
	st := topo.Stats()
	// 2·8·7 = 112 undirected = 224 directed links, delays in [10, 100] ms.
	if st.Count != 224 {
		t.Errorf("link count = %d, want 224", st.Count)
	}
	if st.Min < 10 || st.Max > 100 {
		t.Errorf("delay range [%g, %g] outside [10, 100] ms", st.Min, st.Max)
	}
	if st.Mean < 35 || st.Mean > 75 {
		t.Errorf("mean delay %g looks wrong for U[10,100]", st.Mean)
	}
}

func TestMeshUniformRandomBoundsAndSeeding(t *testing.T) {
	a := MeshUniformRandom(3, 3, 5, 50, 7, "a")
	b := MeshUniformRandom(3, 3, 5, 50, 7, "b")
	c := MeshUniformRandom(3, 3, 5, 50, 8, "c")
	for _, l := range a.Links() {
		if l.Delay < 5 || l.Delay > 50 {
			t.Errorf("delay %g outside [5, 50]", l.Delay)
		}
		if b.LinkDelay(l.From, l.To) != l.Delay {
			t.Errorf("same seed must give the same delays")
		}
	}
	same := true
	for _, l := range a.Links() {
		if c.LinkDelay(l.From, l.To) != l.Delay {
			same = false
			break
		}
	}
	if same {
		t.Errorf("different seeds should give different delays")
	}
}

func TestLinksAreSortedAndComplete(t *testing.T) {
	topo := Mesh(2, 2, "m", func(from, to int) float64 { return float64(from + to + 1) })
	links := topo.Links()
	if len(links) != 8 {
		t.Fatalf("2x2 mesh has %d directed links, want 8", len(links))
	}
	for i := 1; i < len(links); i++ {
		a, b := links[i-1], links[i]
		if a.From > b.From || (a.From == b.From && a.To > b.To) {
			t.Errorf("links are not in lexicographic order: %+v before %+v", a, b)
		}
	}
}

func TestStatsOnUniform(t *testing.T) {
	st := Uniform(3, 7, "u").Stats()
	if st.Min != 7 || st.Max != 7 || st.Mean != 7 {
		t.Errorf("uniform stats = %+v", st)
	}
	if st.AsymmetryMax != 1 {
		t.Errorf("uniform topology asymmetry = %g, want 1", st.AsymmetryMax)
	}
}

// Property: shortest-path delays satisfy the triangle inequality
// Delay(a,c) <= Delay(a,b) + Delay(b,c) on random meshes.
func TestDelayTriangleInequalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		topo := MeshUniformRandom(3, 3, 1, 20, seed, "prop")
		n := topo.N()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				for c := 0; c < n; c++ {
					if a == b || b == c || a == c {
						continue
					}
					if topo.Delay(a, c) > topo.Delay(a, b)+topo.Delay(b, c)+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
