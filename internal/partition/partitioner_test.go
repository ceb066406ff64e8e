package partition

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/sparse"
)

func gridGraph(t *testing.T, nx, ny int) *graph.Electric {
	t.Helper()
	sys := sparse.Poisson2D(nx, ny, 0.05)
	g, err := graph.FromSystem(sys.A, sys.B)
	if err != nil {
		t.Fatalf("FromSystem: %v", err)
	}
	return g
}

func TestAssignmentValidate(t *testing.T) {
	good := Assignment{Parts: 2, Assign: []int{0, 1, 0, 1}}
	if err := good.Validate(4); err != nil {
		t.Errorf("valid assignment rejected: %v", err)
	}
	cases := map[string]Assignment{
		"wrong length":      {Parts: 2, Assign: []int{0, 1}},
		"part out of range": {Parts: 2, Assign: []int{0, 1, 2, 0}},
		"negative part":     {Parts: 2, Assign: []int{0, -1, 0, 1}},
		"empty part":        {Parts: 3, Assign: []int{0, 0, 1, 1}},
		"zero parts":        {Parts: 0, Assign: []int{}},
	}
	for name, a := range cases {
		if err := a.Validate(4); err == nil {
			t.Errorf("%s: expected an error", name)
		}
	}
}

func TestAssignmentPartSizesAndImbalance(t *testing.T) {
	a := Assignment{Parts: 2, Assign: []int{0, 0, 0, 1}}
	sizes := a.PartSizes()
	if sizes[0] != 3 || sizes[1] != 1 {
		t.Errorf("PartSizes = %v", sizes)
	}
	if got := a.Imbalance(); got != 1.5 {
		t.Errorf("Imbalance = %g, want 1.5", got)
	}
	balanced := Assignment{Parts: 2, Assign: []int{0, 0, 1, 1}}
	if got := balanced.Imbalance(); got != 1 {
		t.Errorf("balanced imbalance = %g, want 1", got)
	}
}

// TestStrips: a one-row GridBlocks cuts a chain into contiguous strips of
// nearly equal size.
func TestStrips(t *testing.T) {
	a := GridBlocks(10, 1, 3, 1)
	if err := a.Validate(10); err != nil {
		t.Fatalf("GridBlocks(10, 1, 3, 1) produced an invalid assignment: %v", err)
	}
	// Contiguity: the part index is non-decreasing along the chain.
	for i := 1; i < 10; i++ {
		if a.Assign[i] < a.Assign[i-1] {
			t.Errorf("strips are not contiguous at %d: %v", i, a.Assign)
		}
	}
	sizes := a.PartSizes()
	for p, s := range sizes {
		if s < 3 || s > 4 {
			t.Errorf("part %d has size %d, want 3 or 4", p, s)
		}
	}
}

func TestGridBlocks(t *testing.T) {
	a := GridBlocks(4, 4, 2, 2)
	if err := a.Validate(16); err != nil {
		t.Fatalf("GridBlocks invalid: %v", err)
	}
	// Vertex (0,0) is in block (0,0) = part 0, vertex (3,3) in block (1,1) = 3.
	if a.Assign[0] != 0 {
		t.Errorf("vertex 0 in part %d, want 0", a.Assign[0])
	}
	if a.Assign[15] != 3 {
		t.Errorf("vertex 15 in part %d, want 3", a.Assign[15])
	}
	// Vertex (2,0) = 2 is in block (1,0) = part 1; vertex (0,2) = 8 in part 2.
	if a.Assign[2] != 1 || a.Assign[8] != 2 {
		t.Errorf("block mapping wrong: v2->%d v8->%d", a.Assign[2], a.Assign[8])
	}
	// Perfect balance for an evenly divisible grid.
	if a.Imbalance() != 1 {
		t.Errorf("imbalance = %g, want 1", a.Imbalance())
	}
}

func TestGridBlocksUnevenGrid(t *testing.T) {
	// 17 does not divide evenly by 4; the assignment must still be valid and
	// reasonably balanced (the paper's 17×17 grid on 4×4 processors).
	a := GridBlocks(17, 17, 4, 4)
	if err := a.Validate(289); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if a.Imbalance() > 1.6 {
		t.Errorf("imbalance = %g, want < 1.6", a.Imbalance())
	}
}

func TestLevelSetGrowBalancedAndValid(t *testing.T) {
	g := gridGraph(t, 9, 9)
	a := LevelSetGrow(g, 4)
	if err := a.Validate(81); err != nil {
		t.Fatalf("LevelSetGrow invalid: %v", err)
	}
	if a.Parts != 4 {
		t.Errorf("Parts = %d", a.Parts)
	}
	if a.Imbalance() > 1.3 {
		t.Errorf("imbalance = %g, want close to 1", a.Imbalance())
	}
}

func TestLevelSetGrowSinglePart(t *testing.T) {
	g := gridGraph(t, 3, 3)
	a := LevelSetGrow(g, 1)
	if err := a.Validate(9); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	for _, p := range a.Assign {
		if p != 0 {
			t.Errorf("single-part assignment must map everything to part 0")
		}
	}
}

func TestGridBlocksMatchesMeshAdjacency(t *testing.T) {
	// On a grid partitioned into blocks, boundary vertices must be exactly the
	// vertices on block edges; the number of cut edges must equal the length of
	// the internal block boundaries.
	g := gridGraph(t, 8, 8)
	a := GridBlocks(8, 8, 2, 2)
	cut, boundary := 0, map[int]bool{}
	for e := range g.Edges() {
		if a.Assign[e.U] != a.Assign[e.V] {
			cut++
			boundary[e.U], boundary[e.V] = true, true
		}
	}
	// The vertical interface between columns 3|4 contributes 8 cut edges, the
	// horizontal one between rows 3|4 another 8: 16 in total.
	if cut != 16 {
		t.Errorf("edge cut = %d, want 16", cut)
	}
	// Columns 3 and 4 (16 vertices) plus rows 3 and 4 (16) minus the 4 overlap
	// vertices counted twice = 28.
	if len(boundary) != 28 {
		t.Errorf("boundary size = %d, want 28", len(boundary))
	}
}
