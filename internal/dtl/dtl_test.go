package dtl

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// paperResult builds the EVS result of the paper example with default splits,
// used to exercise the impedance strategies on real twin links.
func paperResult(t *testing.T) *partition.Result {
	t.Helper()
	sys := sparse.PaperExample()
	g, err := graph.FromSystem(sys.A, sys.B)
	if err != nil {
		t.Fatalf("FromSystem: %v", err)
	}
	assign := partition.Assignment{Parts: 2, Assign: []int{0, 0, 1, 1}}
	res, err := partition.EVS(g, assign, partition.Options{})
	if err != nil {
		t.Fatalf("EVS: %v", err)
	}
	if len(res.Links) == 0 {
		t.Fatalf("expected twin links in the paper partition")
	}
	return res
}

func TestConstantStrategy(t *testing.T) {
	res := paperResult(t)
	c := Constant{Z: 0.7}
	if c.Name() == "" {
		t.Errorf("strategy must have a name")
	}
	for _, link := range res.Links {
		if got := c.Impedance(res, link); got != 0.7 {
			t.Errorf("Constant impedance = %g, want 0.7", got)
		}
	}
}

func TestDiagScaledStrategyPositiveAndScales(t *testing.T) {
	res := paperResult(t)
	base := DiagScaled{Alpha: 1}
	doubled := DiagScaled{Alpha: 2}
	for _, link := range res.Links {
		z1 := base.Impedance(res, link)
		z2 := doubled.Impedance(res, link)
		if z1 <= 0 {
			t.Errorf("DiagScaled produced non-positive impedance %g", z1)
		}
		if math.Abs(z2-2*z1) > 1e-12 {
			t.Errorf("DiagScaled must scale linearly in Alpha: %g vs %g", z1, z2)
		}
	}
}

func TestPerVertexStrategy(t *testing.T) {
	res := paperResult(t)
	// The paper's Example 5.1: Z = 0.2 on the V2 pair, Z = 0.1 on the V3 pair.
	perVertex := PerVertex{Values: map[int]float64{1: 0.2, 2: 0.1}, Default: 1}
	for _, link := range res.Links {
		got := perVertex.Impedance(res, link)
		var want float64
		switch link.Global {
		case 1:
			want = 0.2
		case 2:
			want = 0.1
		default:
			want = 1
		}
		if got != want {
			t.Errorf("PerVertex impedance for split vertex %d = %g, want %g", link.Global, got, want)
		}
	}
}

func TestAssignValidatesPositivity(t *testing.T) {
	res := paperResult(t)
	zs, err := Assign(res, Constant{Z: 0.3})
	if err != nil {
		t.Fatalf("Assign: %v", err)
	}
	for _, link := range res.Links {
		if zs[link.ID] != 0.3 {
			t.Errorf("assigned impedance for link %d = %g", link.ID, zs[link.ID])
		}
	}
	if _, err := Assign(res, Constant{Z: 0}); err == nil {
		t.Errorf("a zero impedance must be rejected")
	}
	if _, err := Assign(res, Constant{Z: -1}); err == nil {
		t.Errorf("a negative impedance must be rejected")
	}
}
