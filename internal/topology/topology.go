// Package topology describes the parallel machines DTM runs on: a set of
// processors, the directed communication links between them and the (possibly
// highly asymmetric) per-link delays. It reproduces the two platforms of the
// paper's experiments — a 4×4 mesh of 16 processors with heterogeneous,
// direction-dependent delays between 10 ms and 99 ms (Fig. 11) and an 8×8 mesh
// of 64 processors with delays uniformly distributed in [10 ms, 100 ms]
// (Fig. 13) — plus a few generic topologies used by tests and ablations.
//
// Delays between processors that are not directly linked are the shortest-path
// sums over the link delays (store-and-forward routing), so Delay(i, j) is
// defined for every ordered pair and the DTM engine can map any subdomain
// adjacency onto the machine.
package topology

import (
	"fmt"
	"math"
	"math/rand"
)

// Topology is a directed weighted communication graph over processors
// 0..N-1. Delays are in the same (arbitrary but consistent) time unit used by
// the simulator; the paper uses milliseconds for the mesh experiments and
// microseconds for the two-processor example.
type Topology struct {
	n    int
	name string
	// delay[i][j] is the direct link delay from i to j; +Inf when there is no
	// direct link. delay[i][i] = 0.
	delay [][]float64
	// routed[i][j] is the shortest-path delay from i to j (computed lazily).
	routed [][]float64
}

// New returns a topology with n processors and no links.
func New(n int, name string) *Topology {
	if n <= 0 {
		panic(fmt.Sprintf("topology: New with non-positive size %d", n))
	}
	t := &Topology{n: n, name: name}
	t.delay = make([][]float64, n)
	for i := range t.delay {
		t.delay[i] = make([]float64, n)
		for j := range t.delay[i] {
			if i != j {
				t.delay[i][j] = math.Inf(1)
			}
		}
	}
	return t
}

// N returns the number of processors.
func (t *Topology) N() int { return t.n }

// Name returns a human-readable identifier.
func (t *Topology) Name() string { return t.name }

// SetLink sets the directed link delay from processor a to processor b.
func (t *Topology) SetLink(a, b int, delay float64) {
	if a < 0 || a >= t.n || b < 0 || b >= t.n {
		panic(fmt.Sprintf("topology: SetLink (%d,%d) out of range [0,%d)", a, b, t.n))
	}
	if a == b {
		return
	}
	if delay <= 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("topology: SetLink delay must be positive, got %g", delay))
	}
	t.delay[a][b] = delay
	t.routed = nil
}

// SetLinkPair sets both directions of a link, possibly with different delays.
func (t *Topology) SetLinkPair(a, b int, delayAB, delayBA float64) {
	t.SetLink(a, b, delayAB)
	t.SetLink(b, a, delayBA)
}

// HasDirectLink reports whether there is a direct link from a to b.
func (t *Topology) HasDirectLink(a, b int) bool {
	return a != b && !math.IsInf(t.delay[a][b], 1)
}

// LinkDelay returns the direct link delay from a to b (+Inf when absent).
func (t *Topology) LinkDelay(a, b int) float64 { return t.delay[a][b] }

// Delay returns the end-to-end delay from a to b: the direct link delay if a
// link exists, otherwise the shortest store-and-forward path over the links.
// It panics if b is unreachable from a. The first call routes all pairs, so
// concurrent callers must serialise it.
func (t *Topology) Delay(a, b int) float64 {
	if a == b {
		return 0
	}
	t.ensureRouted()
	d := t.routed[a][b]
	if math.IsInf(d, 1) {
		panic(fmt.Sprintf("topology %s: processor %d cannot reach processor %d", t.name, a, b))
	}
	return d
}

func (t *Topology) ensureRouted() {
	if t.routed != nil {
		return
	}
	n := t.n
	r := make([][]float64, n)
	for i := range r {
		r[i] = make([]float64, n)
		copy(r[i], t.delay[i])
	}
	// Floyd–Warshall all-pairs shortest paths over link delays.
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := r[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if v := dik + r[k][j]; v < r[i][j] {
					r[i][j] = v
				}
			}
		}
	}
	t.routed = r
}

// DirectedLinks returns every ordered pair (a, b) with a direct link, in
// lexicographic order, together with its delay.
type Link struct {
	From, To int
	Delay    float64
}

// Links returns all directed links.
func (t *Topology) Links() []Link {
	var out []Link
	for i := 0; i < t.n; i++ {
		for j := 0; j < t.n; j++ {
			if t.HasDirectLink(i, j) {
				out = append(out, Link{From: i, To: j, Delay: t.delay[i][j]})
			}
		}
	}
	return out
}

// DelayStats summarises the link delays (for the bar charts of Figs. 11B/13B).
type DelayStats struct {
	Count          int
	Min, Max, Mean float64
	// AsymmetryMax is the largest ratio delay(i→j)/delay(j→i) over linked pairs.
	AsymmetryMax float64
}

// Stats returns the delay statistics of the direct links.
func (t *Topology) Stats() DelayStats {
	var s DelayStats
	s.Min = math.Inf(1)
	s.AsymmetryMax = 1
	var sum float64
	for _, l := range t.Links() {
		s.Count++
		sum += l.Delay
		if l.Delay < s.Min {
			s.Min = l.Delay
		}
		if l.Delay > s.Max {
			s.Max = l.Delay
		}
		back := t.delay[l.To][l.From]
		if !math.IsInf(back, 1) && back > 0 {
			if r := l.Delay / back; r > s.AsymmetryMax {
				s.AsymmetryMax = r
			}
		}
	}
	if s.Count > 0 {
		s.Mean = sum / float64(s.Count)
	} else {
		s.Min = 0
	}
	return s
}

// LocalSolveTime is the virtual time one local solve takes in the
// discrete-event engines, DTM's and asynchronous block-Jacobi's alike: 5% of
// the smallest delay between adjacent parts, or 5% of one time unit when no
// parts are adjacent. adjacent[a] lists the parts adjacent to part a and
// delay is from part to part. The rule keeps the processors busy a realistic
// fraction of the time and bounds the message rate.
func LocalSolveTime(adjacent [][]int, delay func(a, b int) float64) float64 {
	minDelay := math.Inf(1)
	for a, neighbours := range adjacent {
		for _, b := range neighbours {
			minDelay = math.Min(minDelay, delay(a, b))
		}
	}
	if math.IsInf(minDelay, 1) {
		minDelay = 1
	}
	return 0.05 * minDelay
}

// Uniform returns a fully connected topology with the same delay on every
// directed link — the simplest platform, used by unit tests and by the VTM
// comparison (equal unit delays make DTM degenerate into VTM).
func Uniform(n int, delay float64, name string) *Topology {
	if n < 1 {
		panic(fmt.Sprintf("topology: Uniform needs n >= 1 processors, got %d", n))
	}
	if delay <= 0 || math.IsNaN(delay) {
		// Checked up front: a 1-processor machine has no links, so SetLink
		// would never see (and reject) the bad delay.
		panic(fmt.Sprintf("topology: Uniform delay must be positive, got %g", delay))
	}
	t := New(n, name)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				t.SetLink(i, j, delay)
			}
		}
	}
	return t
}

// TwoProcessorPaper returns the two-processor machine of Example 5.1: the
// delay from processor A (0) to B (1) is 6.7 µs and from B to A is 2.9 µs.
func TwoProcessorPaper() *Topology {
	t := New(2, "two-processor-paper")
	t.SetLinkPair(0, 1, 6.7, 2.9)
	return t
}

// Mesh builds a px×py 2-D mesh of processors (processor (bx, by) has index
// bx + by*px) with per-direction delays produced by the supplied function,
// which is called once per directed link.
func Mesh(px, py int, name string, delayFn func(from, to int) float64) *Topology {
	if px <= 0 || py <= 0 {
		panic(fmt.Sprintf("topology: Mesh invalid size %dx%d", px, py))
	}
	t := New(px*py, name)
	idx := func(bx, by int) int { return bx + by*px }
	addBoth := func(a, b int) {
		t.SetLink(a, b, delayFn(a, b))
		t.SetLink(b, a, delayFn(b, a))
	}
	for by := 0; by < py; by++ {
		for bx := 0; bx < px; bx++ {
			i := idx(bx, by)
			if bx < px-1 {
				addBoth(i, idx(bx+1, by))
			}
			if by < py-1 {
				addBoth(i, idx(bx, by+1))
			}
		}
	}
	return t
}

// MeshUniformRandom builds a px×py mesh whose directed link delays are drawn
// independently and uniformly from [lo, hi] using the given seed. With
// lo=10, hi=100 ms and an 8×8 mesh this is the Fig. 13 platform.
func MeshUniformRandom(px, py int, lo, hi float64, seed int64, name string) *Topology {
	if hi < lo || lo <= 0 {
		panic(fmt.Sprintf("topology: MeshUniformRandom invalid delay range [%g,%g]", lo, hi))
	}
	rng := rand.New(rand.NewSource(seed))
	return Mesh(px, py, name, func(from, to int) float64 {
		return lo + (hi-lo)*rng.Float64()
	})
}

// Mesh4x4Paper returns the 16-processor 4×4 mesh of Fig. 11: heterogeneous,
// direction-dependent delays between 10 ms and 99 ms with a max/min ratio of
// about 9–10×. The paper gives the delays pictorially; we regenerate the same
// statistics deterministically from a fixed seed.
func Mesh4x4Paper() *Topology {
	return MeshUniformRandom(4, 4, 10, 99, 1108, "mesh-4x4-paper")
}

// Mesh8x8Paper returns the 64-processor 8×8 mesh of Fig. 13 with directed
// delays uniformly distributed between 10 ms and 100 ms.
func Mesh8x8Paper() *Topology {
	return MeshUniformRandom(8, 8, 10, 100, 4225, "mesh-8x8-paper")
}

// Ring returns an n-processor ring with the given uniform delay per hop.
func Ring(n int, delay float64) *Topology {
	if n < 1 {
		panic(fmt.Sprintf("topology: Ring needs n >= 1 processors, got %d", n))
	}
	if delay <= 0 || math.IsNaN(delay) {
		// Checked up front: a 1-processor ring has no links, so SetLink would
		// never see (and reject) the bad delay.
		panic(fmt.Sprintf("topology: Ring delay must be positive, got %g", delay))
	}
	t := New(n, fmt.Sprintf("ring-%d", n))
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		if i != j {
			t.SetLinkPair(i, j, delay, delay)
		}
	}
	return t
}
