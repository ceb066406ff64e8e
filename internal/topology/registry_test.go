package topology

import (
	"math"
	"testing"
)

// FuzzParseTopology feeds the registry what arrives from outside — a spec
// string, the caller's processor count and default delay — and holds it to
// its contract: no panic; an accepted spec builds 1 to MaxProcessors
// processors; every link delay is positive. The seeds pin the refusals —
// sizes out of range (the torus's by the square it would build), delays that
// are not positive and finite — and the largest machines accepted.
func FuzzParseTopology(f *testing.F) {
	for _, seed := range []struct {
		spec  string
		n     int
		delay float64
	}{
		{"", 0, 10},
		{"uniform", -1, 10},
		{"uniform", MaxProcessors + 1, 10},
		{"ring", MaxProcessors, 10},
		{"ring", MaxProcessors + 1, 10},
		{"torus", 0, 10},
		{"torus", 45*45 + 1, 10}, // a 46×46 torus
		{"torus", 45 * 45, 10},
		{"yao", 0, 10},
		{"yao:n=3,k=2", 0, 1},
		{"yao:n=2049", 4, 10},
		{"mesh4x4", 0, 10},
		{"uniform", 3, 0},
		{"uniform", 3, -1},
		{"uniform", 3, math.NaN()},
		{"ring", 3, math.Inf(1)},
		{"yao", 5, math.Inf(-1)},
	} {
		f.Add(seed.spec, seed.n, seed.delay)
	}
	f.Fuzz(func(t *testing.T, spec string, n int, delay float64) {
		topo, err := ParseTopology(spec, n, delay)
		if err != nil {
			return
		}
		if topo.N() < 1 || topo.N() > MaxProcessors {
			t.Fatalf("ParseTopology(%q, %d, %g) built %d processors, outside [1,%d]", spec, n, delay, topo.N(), MaxProcessors)
		}
		for i := 0; i < topo.N(); i++ {
			for j := 0; j < topo.N(); j++ {
				if d := topo.LinkDelay(i, j); topo.HasDirectLink(i, j) && !(d > 0) {
					t.Fatalf("ParseTopology(%q, %d, %g): link %d→%d has delay %g", spec, n, delay, i, j, d)
				}
			}
		}
	})
}
