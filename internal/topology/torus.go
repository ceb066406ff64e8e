package topology

import (
	"fmt"
	"math/rand"
)

// Torus builds a px×py 2-D torus of processors: the same grid adjacency as
// Mesh plus wrap-around links between the first and last processor of every
// row and column. Tori halve the network diameter of large meshes and are the
// natural next platform for DTM's mesh experiments; the per-direction delays
// are produced by the supplied function, called once per directed link.
func Torus(px, py int, name string, delayFn func(from, to int) float64) *Topology {
	if px <= 1 || py <= 1 {
		panic(fmt.Sprintf("topology: Torus needs at least 2 processors per dimension, got %dx%d", px, py))
	}
	t := New(px*py, name)
	idx := func(x, y int) int { return (x+px)%px + ((y+py)%py)*px }
	addPair := func(a, b int) {
		if a == b || t.HasDirectLink(a, b) {
			return
		}
		t.SetLink(a, b, delayFn(a, b))
		t.SetLink(b, a, delayFn(b, a))
	}
	for y := 0; y < py; y++ {
		for x := 0; x < px; x++ {
			i := idx(x, y)
			addPair(i, idx(x+1, y))
			addPair(i, idx(x, y+1))
		}
	}
	return t
}

// TorusUniformRandom builds a px×py torus whose directed link delays are drawn
// independently and uniformly from [lo, hi] using the given seed — the torus
// counterpart of MeshUniformRandom, and the machine of the registry's "torus"
// scheme.
func TorusUniformRandom(px, py int, lo, hi float64, seed int64, name string) *Topology {
	rng := rand.New(rand.NewSource(seed))
	return Torus(px, py, name, func(from, to int) float64 {
		return lo + (hi-lo)*rng.Float64()
	})
}
