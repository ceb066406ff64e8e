package partition

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/sparse"
)

// The hashes in this file were recorded at commit 507d941 — the parent of the
// PR that made graph.Electric a flat read-only adjacency, EVS slice-indexed
// and COO.ToCSR a counting sort — by running these same tests there with
// zeroed tables (`go test ./internal/partition/ -run Golden`) and copying the
// printed values. They pin "the same tear, bit for bit".

type hasher struct {
	h   hash.Hash64
	buf [8]byte
}

func newHasher() *hasher { return &hasher{h: fnv.New64a()} }

func (h *hasher) int(v int) {
	binary.LittleEndian.PutUint64(h.buf[:], uint64(v))
	h.h.Write(h.buf[:])
}

func (h *hasher) ints(vs []int) {
	h.int(len(vs))
	for _, v := range vs {
		h.int(v)
	}
}

func (h *hasher) floats(vs []float64) {
	h.int(len(vs))
	for _, v := range vs {
		binary.LittleEndian.PutUint64(h.buf[:], math.Float64bits(v))
		h.h.Write(h.buf[:])
	}
}

// tearHash covers everything EVS hands to the layers above it: per subdomain
// the CSR (row lengths, column indices, value bits), B, GlobalIdx and NumPorts;
// then every twin link and every split record.
func tearHash(r *Result) uint64 {
	h := newHasher()
	h.int(len(r.Subdomains))
	for _, sub := range r.Subdomains {
		h.int(sub.Part)
		h.int(sub.NumPorts)
		h.ints(sub.GlobalIdx)
		h.int(sub.A.Rows())
		h.int(sub.A.Cols())
		for i := 0; i < sub.A.Rows(); i++ {
			cols, vals := sub.A.RowView(i)
			h.ints(cols)
			h.floats(vals)
		}
		h.floats(sub.B)
	}
	h.int(len(r.Links))
	for _, l := range r.Links {
		h.ints([]int{l.ID, l.Global, l.PartA, l.PartB, l.PortA, l.PortB})
	}
	h.int(len(r.Splits))
	for _, s := range r.Splits {
		h.int(s.Global)
		h.ints(s.Parts)
		h.floats(s.Weights)
		h.floats(s.Sources)
	}
	h.ints(r.Boundary)
	return h.h.Sum64()
}

func sourceSystem(t testing.TB, spec string) (sparse.System, sparse.Hint) {
	t.Helper()
	src, err := sparse.ParseSource(spec)
	if err != nil {
		t.Fatal(err)
	}
	sys, hint, err := src.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys, hint
}

// tearCase is one tear TestTearGolden pins.
type tearCase struct {
	name   string
	sys    func() (sparse.System, sparse.Hint)
	px, py int // regular block tearing of a grid source, or
	nparts int // LevelSetGrow
	assign *Assignment
	opts   Options
}

// goldenTears lists the tears TestTearGolden pins.
func goldenTears(t testing.TB) []tearCase {
	paperOpts := Options{
		// Example 4.1 as internal/experiments/fig8.go tears it.
		Boundary: []int{1, 2},
		VertexSplit: func(global int, parts []int, weight, source float64) ([]float64, []float64) {
			if global == 1 {
				return []float64{2.5, 3.5}, []float64{0.8, 1.2}
			}
			return []float64{3.3, 3.7}, []float64{1.6, 1.4}
		},
		EdgeSplit: func(u, v int, weight float64) (float64, float64) {
			if u == 1 && v == 2 {
				return -0.9, -1.1
			}
			return weight / 2, weight / 2
		},
	}
	return []tearCase{
		// The three gated bench/dtmperf problems.
		{name: "ring9-grid13", sys: func() (sparse.System, sparse.Hint) { return sourceSystem(t, "grid:rows=13,cols=13,seed=169") }, px: 3, py: 3},
		{name: "bigblock-grid65", sys: func() (sparse.System, sparse.Hint) { return sourceSystem(t, "grid:rows=65,cols=65,seed=7") }, px: 2, py: 2},
		{name: "spanner-lsg4", sys: func() (sparse.System, sparse.Hint) { return sourceSystem(t, "spanner:n=1000,k=6,seed=1") }, nparts: 4},
		// dtmd's default spec, the indefinite irregular source, the paper's
		// worked example with its explicit splits.
		{name: "grid17-2x2", sys: func() (sparse.System, sparse.Hint) { return sourceSystem(t, "grid:rows=17,cols=17,seed=3") }, px: 2, py: 2},
		{name: "saddle-lsg4", sys: func() (sparse.System, sparse.Hint) { return sourceSystem(t, "saddle:") }, nparts: 4},
		{name: "example-4.1", sys: func() (sparse.System, sparse.Hint) { return sparse.PaperExample(), sparse.Hint{} },
			assign: &Assignment{Parts: 2, Assign: []int{0, 0, 1, 1}}, opts: paperOpts},
	}
}

// tear builds the case's graph and tears it.
func (tc tearCase) tear(t testing.TB) (*graph.Electric, *Result) {
	t.Helper()
	sys, hint := tc.sys()
	g, err := graph.FromSystem(sys.A, sys.B)
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	var a Assignment
	switch {
	case tc.assign != nil:
		a = *tc.assign
	case tc.nparts > 0:
		a = LevelSetGrow(g, tc.nparts)
	default:
		a = GridBlocks(hint.NX, hint.NY, tc.px, tc.py)
	}
	r, err := EVS(g, a, tc.opts)
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	return g, r
}

func TestTearGolden(t *testing.T) {
	golden := map[string]uint64{
		"ring9-grid13":    0x798f838da1a1522a,
		"bigblock-grid65": 0x56f5303650b1d764,
		"spanner-lsg4":    0x65f1327d4934b27a,
		"grid17-2x2":      0xcfe9758e242b7677,
		"saddle-lsg4":     0x1abe3ba50dbe4781,
		"example-4.1":     0xd6dc655385250874,
	}
	for _, tc := range goldenTears(t) {
		g, r := tc.tear(t)
		if got := tearHash(r); got != golden[tc.name] {
			t.Errorf("%s: FNV-1a of the tear = %#x, want %#x", tc.name, got, golden[tc.name])
		}
		checkAssembly(t, tc.name, g, r, tc.opts)
	}
}

func TestAssignmentGolden(t *testing.T) {
	cases := []struct {
		source string
		parts  int
		lsg    uint64 // LevelSetGrow
	}{
		{"spanner:n=1000,k=6,seed=1", 4, 0x95e64ba1d5d0a278},
		{"spanner:n=1000,k=6,seed=1", 7, 0xc38ad91f0be2b9ee},
		{"grid:rows=33,cols=33,seed=1", 4, 0x43f69cb8ce34d8ac},
		{"grid:rows=33,cols=33,seed=1", 6, 0x7012a19493b522b1},
	}
	hashOf := func(a Assignment) uint64 {
		h := newHasher()
		h.int(a.Parts)
		h.ints(a.Assign)
		return h.h.Sum64()
	}
	for _, tc := range cases {
		sys, _ := sourceSystem(t, tc.source)
		g, err := graph.FromSystem(sys.A, sys.B)
		if err != nil {
			t.Fatal(err)
		}
		if got := hashOf(LevelSetGrow(g, tc.parts)); got != tc.lsg {
			t.Errorf("LevelSetGrow(%s, %d): FNV-1a = %#x, want %#x", tc.source, tc.parts, got, tc.lsg)
		}
	}
}

// TestNeighborsAscendingAndStable states the contract of the neighbour view:
// strictly ascending, diagonal-free, and still so after every consumer in this
// package has walked the graph (a partitioner once sorted the slice it was
// handed in place; the neighbours are A's own rows now, so such a write would
// change the system).
func TestNeighborsAscendingAndStable(t *testing.T) {
	sys, _ := sourceSystem(t, "spanner:n=200")
	g, err := graph.FromSystem(sys.A, sys.B)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() [][]int {
		out := make([][]int, g.Order())
		for v := range out {
			out[v] = slices.Collect(g.Neighbors(v))
		}
		return out
	}
	before := snapshot()
	for v, nbs := range before {
		for k, w := range nbs {
			if w == v {
				t.Fatalf("vertex %d lists itself as a neighbour", v)
			}
			if k > 0 && nbs[k-1] >= w {
				t.Fatalf("neighbours of %d are not strictly ascending: %v", v, nbs)
			}
			if sys.A.At(v, w) == 0 {
				t.Fatalf("vertex %d lists %d but A(%d,%d) = 0", v, w, v, w)
			}
		}
	}
	a := LevelSetGrow(g, 4)
	if _, err := EVS(g, a, Options{}); err != nil {
		t.Fatal(err)
	}
	if after := snapshot(); !slices.EqualFunc(before, after, slices.Equal[[]int]) {
		t.Errorf("a partitioner or EVS modified the neighbour view")
	}
}

// tearMallocs returns the heap objects and bytes allocated by one tear of an
// nx×ny grid source into 2×2 blocks: FromSystem + GridBlocks + EVS.
func tearMallocs(t *testing.T, sys sparse.System, hint sparse.Hint) (objects, bytes uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g, err := graph.FromSystem(sys.A, sys.B)
	if err != nil {
		t.Fatal(err)
	}
	r, err := EVS(g, GridBlocks(hint.NX, hint.NY, 2, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(r)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestTearAllocationsDoNotScaleWithN is the exact, host-independent signal
// that the tear works on flat storage: a grid with four times the unknowns
// allocates (almost) the same number of objects — a handful of larger slices,
// a few more append doublings — where the map-of-maps graph and EVS's
// per-vertex maps allocated per vertex (parent 507d941: 3 193 objects at 33²,
// 10 191 at 65², 7.68 MB).
func TestTearAllocationsDoNotScaleWithN(t *testing.T) {
	small, smallHint := sourceSystem(t, "grid:rows=33,cols=33,seed=7")
	big, bigHint := sourceSystem(t, "grid:rows=65,cols=65,seed=7")
	// The minimum over a few runs discards allocations of the runtime itself
	// (a concurrent GC cycle, another test's goroutine under -race).
	const runs = 5
	best := func(sys sparse.System, hint sparse.Hint) (objects, bytes uint64) {
		objects, bytes = math.MaxUint64, math.MaxUint64
		for i := 0; i < runs; i++ {
			o, b := tearMallocs(t, sys, hint)
			objects, bytes = min(objects, o), min(bytes, b)
		}
		return objects, bytes
	}
	smallObjs, _ := best(small, smallHint)
	bigObjs, bigBytes := best(big, bigHint)
	t.Logf("tear 2x2: 33² %d objects, 65² %d objects, %.2f MB", smallObjs, bigObjs, float64(bigBytes)/1e6)
	if bigObjs > smallObjs+64 {
		t.Errorf("tearing 65² allocates %d objects, 33² %d: the difference %d exceeds 64 — something allocates per vertex or per edge",
			bigObjs, smallObjs, bigObjs-smallObjs)
	}
	if limit := uint64(3.8e6); bigBytes > limit {
		t.Errorf("tearing 65² 2x2 allocates %d bytes, want at most %d", bigBytes, limit)
	}
}
