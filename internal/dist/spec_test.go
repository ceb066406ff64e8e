package dist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sparse"
	"repro/internal/topology"
	"repro/internal/transport"
)

// legacySpec is what a pre-registry coordinator's spec — rows 12, cols 12,
// seed 7, torn 2×2 — came to once its Rows/Cols/Seed were gone: a spec with
// no Source.
var legacySpec = SpecV2{PartsX: 2, PartsY: 2, Delay: 10}

// TestLegacySpecRefused: a spec without a problem source must be refused —
// by Build, by the coordinator's Validate before it touches the transport,
// and by a worker at assign time — rather than torn into something the rest
// of the fleet did not tear.
func TestLegacySpecRefused(t *testing.T) {
	s := legacySpec
	_, err := s.Build()
	if err == nil || !strings.Contains(err.Error(), "no problem source") {
		t.Fatalf("Build err = %v, want the no-problem-source refusal", err)
	}
	if _, err := s.SourceString(); err == nil {
		t.Fatal("SourceString accepted a spec without a source")
	}

	_, err = Coordinate(context.Background(), nil, CoordConfig{Spec: s, Workers: []int{1, 2}, Tol: 1e-6})
	if err == nil || !strings.Contains(err.Error(), "no problem source") {
		t.Fatalf("Coordinate err = %v, want the no-problem-source refusal", err)
	}

	members := transport.NewChanNetwork(2)
	defer members[0].Close()
	defer members[1].Close()
	a := &assignMsg{Spec: s, Owner: []int{1, 1, 1, 1}, WatchdogMS: 50, HeartbeatMS: 25, Ordering: "auto"}
	outs := stepMsg(t, stepState(members[1], 1), 0, &ctrlMsg{Type: msgAssign, Assign: a})
	if len(outs) != 1 || !strings.Contains(outs[0].m.Err, "no problem source") {
		t.Fatalf("worker answered the assign with %d messages, want a ready with the no-problem-source refusal", len(outs))
	}
}

// TestSpecHashSpellingInvariant: the hash folds canonical strings, so two
// spellings of the same source hash identically — failover rendezvous does
// not depend on how the coordinator happened to write the spec.
func TestSpecHashSpellingInvariant(t *testing.T) {
	v2 := SpecV2{V: 2, Source: "grid:rows=12,cols=12,seed=7", PartsX: 2, PartsY: 2}
	sloppy := SpecV2{V: 2, Source: "grid: seed=7 , cols=12 ,rows=12", PartsX: 2, PartsY: 2}
	if sloppy.Hash() != v2.Hash() {
		t.Fatalf("non-canonical spelling hashes differently: %016x vs %016x", sloppy.Hash(), v2.Hash())
	}
	other := SpecV2{V: 2, Source: "grid:rows=12,cols=12,seed=8", PartsX: 2, PartsY: 2}
	if other.Hash() == v2.Hash() {
		t.Fatal("different seeds hash identically")
	}
}

// formerLegacySpecs are the specs that used to be written Rows/Cols/Seed —
// the E9/E10 defaults and legacySpec — with the Hash their legacy form
// had in the last release that accepted it.
var formerLegacySpecs = []struct {
	rows, cols int
	seed       int64
	px, py     int
	hash       uint64
}{
	{33, 33, 1089, 2, 4, 0x569e4f8330f88bf1}, // E9/E10 full
	{17, 17, 289, 2, 2, 0x009e214fe150e788},  // E9/E10 quick
	{12, 12, 7, 2, 2, 0x828ce3b302e6a9c8},    // legacySpec
}

func gridSpec(rows, cols int, seed int64, px, py int) SpecV2 {
	return SpecV2{V: 2, Source: fmt.Sprintf("grid:rows=%d,cols=%d,seed=%d", rows, cols, seed), PartsX: px, PartsY: py}
}

// TestV2GridSourceTearsLikeLegacy: the grid: spelling of a former legacy spec
// keeps its Hash, so failover rendezvous and lease jitter did not move when
// E9/E10 were respelled.
func TestV2GridSourceTearsLikeLegacy(t *testing.T) {
	for _, tc := range formerLegacySpecs {
		spec := gridSpec(tc.rows, tc.cols, tc.seed, tc.px, tc.py)
		if got := spec.Hash(); got != tc.hash {
			t.Errorf("%s: Hash = %#016x, legacy form hashed to %#016x", spec.Source, got, tc.hash)
		}
	}
}

// TestSpecHashPinned: the specs in daily use — dtmd's default and the three
// bench/dtmperf problems — hash as they did before every generator became a
// registered source, so ownership after a failover and lease jitter are
// where they were.
func TestSpecHashPinned(t *testing.T) {
	for _, tc := range []struct {
		spec SpecV2
		hash uint64
	}{
		{SpecV2{V: 2, Source: "grid:rows=17,cols=17,seed=3", PartsX: 2, PartsY: 2}, 0xe8eee9315032d310},
		{SpecV2{V: 2, Source: "grid:rows=13,cols=13,seed=169", PartsX: 3, PartsY: 3, Topology: "ring"}, 0xb4be39c54f5f2aa1},
		{SpecV2{V: 2, Source: "grid:rows=65,cols=65,seed=7", PartsX: 2, PartsY: 2, Topology: "uniform"}, 0x3117b346c257a8c4},
		{SpecV2{V: 2, Source: "spanner:n=1000,k=6,seed=1", NParts: 4, Topology: "uniform"}, 0x2da505b346f83934},
	} {
		if got := tc.spec.Hash(); got != tc.hash {
			t.Errorf("%s: Hash = %#016x, want %#016x", tc.spec.Source, got, tc.hash)
		}
	}
}

// TestLegacySpecBuildByteIdentical: the grid: spelling of a former legacy
// spec tears exactly as the legacy path did, which was the direct
// RandomGridSPD → GridProblem pipeline — same assignment, same subdomain
// port layout, same twin-link numbering.
func TestLegacySpecBuildByteIdentical(t *testing.T) {
	for _, tc := range formerLegacySpecs {
		spec := gridSpec(tc.rows, tc.cols, tc.seed, tc.px, tc.py)
		got, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		sys := sparse.RandomGridSPD(tc.rows, tc.cols, tc.seed)
		want, err := core.GridProblem(sys, tc.rows, tc.cols, tc.px, tc.py, topology.Uniform(tc.px*tc.py, 10, "uniform"))
		if err != nil {
			t.Fatal(err)
		}
		gp, wp := got.Partition, want.Partition
		if !reflect.DeepEqual(gp.Assign.Assign, wp.Assign.Assign) {
			t.Fatalf("%s: vertex assignment differs from the legacy pipeline", spec.Source)
		}
		if len(gp.Subdomains) != len(wp.Subdomains) {
			t.Fatalf("%s: %d subdomains, legacy pipeline had %d", spec.Source, len(gp.Subdomains), len(wp.Subdomains))
		}
		for p, ws := range wp.Subdomains {
			gs := gp.Subdomains[p]
			if gs.NumPorts != ws.NumPorts || !reflect.DeepEqual(gs.GlobalIdx, ws.GlobalIdx) {
				t.Fatalf("%s: part %d port layout differs from the legacy pipeline", spec.Source, p)
			}
		}
		if !reflect.DeepEqual(gp.Links, wp.Links) {
			t.Fatalf("%s: twin-link numbering differs from the legacy pipeline", spec.Source)
		}
	}
}

// TestSpannerSpecAutoTearing: an irregular source with an explicit part
// count goes through the general pipeline and yields exactly NParts parts.
func TestSpannerSpecAutoTearing(t *testing.T) {
	s := SpecV2{V: 2, Source: "spanner:n=64,k=5,seed=9,leak=0.05", NParts: 4}
	p, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Partition.NumParts(); got != 4 {
		t.Fatalf("torn into %d parts, want 4", got)
	}
	if p.System.Dim() != 64 {
		t.Fatalf("system dim %d, want 64", p.System.Dim())
	}
	if p.Topology.N() < 4 {
		t.Fatalf("topology has %d processors, need >= 4", p.Topology.N())
	}
}

// TestMMSpecHashMismatchRefused: a worker (or coordinator) whose mm: file
// does not hash to the pinned value must refuse the assignment with the
// typed sparse error, surfaced through both Build (the workers) and
// Validate (the coordinator).
func TestMMSpecHashMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sys.mtx")
	sys := sparse.RandomGridSPD(6, 6, 2)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sparse.WriteMatrixSym(f, sys.A); err != nil {
		t.Fatal(err)
	}
	f.Close()
	h, err := sparse.HashFileFNV64(path)
	if err != nil {
		t.Fatal(err)
	}

	good := SpecV2{V: 2, Source: sparse.MMSource{Path: path, Hash: h}.String(), NParts: 2}
	if _, err := good.Build(); err != nil {
		t.Fatalf("matching hash refused: %v", err)
	}

	bad := SpecV2{V: 2, Source: sparse.MMSource{Path: path, Hash: h ^ 1}.String(), NParts: 2}
	if _, err := bad.Build(); !errors.Is(err, sparse.ErrHashMismatch) {
		t.Fatalf("Build err = %v, want ErrHashMismatch", err)
	}
	var mismatch *sparse.HashMismatchError
	if _, err := bad.Build(); !errors.As(err, &mismatch) {
		t.Fatalf("Build err = %v, want *HashMismatchError", err)
	}

	// Coordinate validates the spec, hashing the file, before touching the
	// transport, so the refusal is a coordinator-side fast-fail with the same
	// typed error.
	_, err = Coordinate(context.Background(), nil, CoordConfig{
		Spec: bad, Workers: []int{1, 2}, Tol: 1e-6,
	})
	if !errors.Is(err, sparse.ErrHashMismatch) {
		t.Fatalf("Coordinate err = %v, want ErrHashMismatch", err)
	}
}

// TestSpecBuildRejectsOversizedTearing: a spec asking for more parts than the
// system has unknowns (along either side, for a block tearing) is an error
// naming both numbers, not a partitioner panic — Build runs on every worker on
// a spec that arrived over the wire. Validate cannot see it without tearing,
// so in a session the error reaches Coordinate from a worker.
func TestSpecBuildRejectsOversizedTearing(t *testing.T) {
	for _, s := range []SpecV2{
		{V: 2, Source: "tridiag:n=5", NParts: 9},
		{V: 2, Source: "grid:rows=3,cols=3,seed=1", NParts: 10},
		{V: 2, Source: "grid:rows=3,cols=5,seed=1", PartsX: 4, PartsY: 1},
		{V: 2, Source: "grid:rows=3,cols=5,seed=1", PartsX: 1, PartsY: 6},
	} {
		p, err := s.Build()
		if err == nil {
			t.Errorf("%+v: built a problem with %d parts, want an error", s, p.Partition.NumParts())
			continue
		}
		for _, want := range []string{"unknowns", fmt.Sprint(s.Parts(), " parts")} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%+v: error %q does not mention %q", s, err, want)
			}
		}

		f := NewFleet(chanFabric(t, 3), nil)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, err = f.Coordinate(ctx, CoordConfig{Spec: s, Tol: 1e-9})
		cancel()
		f.Close()
		if err == nil || !strings.Contains(err.Error(), "dist: worker") || !strings.Contains(err.Error(), "unknowns") {
			t.Errorf("%+v: Coordinate err = %v, want a worker's error naming the unknowns", s, err)
		}
	}
	// The largest request that fits still builds.
	if _, err := (&SpecV2{V: 2, Source: "grid:rows=3,cols=5,seed=1", PartsX: 3, PartsY: 5}).Build(); err != nil {
		t.Errorf("3x5 parts of a 3x5 grid: %v", err)
	}
}

// TestSpecValidateBoundsTheMachine: the part counts of a spec arrive over the
// wire and size the machine's dense delay table, so Validate refuses any of
// them, or their product, outside [1, topology.MaxProcessors] before it
// builds anything. (Every case stays near the bound: a build that ignored it
// would cost tens of megabytes, not a machine.)
func TestSpecValidateBoundsTheMachine(t *testing.T) {
	const most = topology.MaxProcessors
	for _, s := range []SpecV2{
		{V: 2, Source: "tridiag:n=5", NParts: most + 1},
		{V: 2, Source: "tridiag:n=5", NParts: -1, PartsX: 2, PartsY: 2},
		{V: 2, Source: "tridiag:n=5", PartsX: most + 1, PartsY: 1},
		{V: 2, Source: "tridiag:n=5", PartsX: 1 << 32, PartsY: 1 << 32},
		{V: 2, Source: "tridiag:n=5", PartsX: 46, PartsY: 45, Topology: "ring"},
		{V: 2, Source: "tridiag:n=5", PartsX: -2, PartsY: -2},
	} {
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), fmt.Sprint(most)) {
			t.Errorf("%+v: Validate err = %v, want one naming the bound %d", s, err, most)
		}
	}
}

// TestCoordinatorDoesNotTear: the coordinator validates the spec and leaves
// the tearing to the workers. With no worker serving, a session on a spanner
// of 10⁵ points, one Build of which allocates ≈ 150 MB, runs into the ready
// deadline having allocated under 1 MB (≈ 47 kB).
func TestCoordinatorDoesNotTear(t *testing.T) {
	members := chanFabric(t, 2)
	spec := SpecV2{V: 2, Source: "spanner:n=100000,k=6,seed=1", NParts: 4}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Coordinate(ctx, members[0], CoordConfig{Spec: spec, Workers: []int{1}, Tol: 1e-9})
	runtime.ReadMemStats(&after)
	var wl *WorkerLostError
	if !errors.As(err, &wl) || wl.Worker != 1 || wl.Phase != "ready" {
		t.Fatalf("Coordinate err = %v, want worker 1 lost at ready", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("the coordinator allocated %d bytes: it tore the spec", d)
	}
}

// gatedSpecs are the three problems bench/dtmperf gates its end-to-end
// metrics on, as every member of a session builds them from the spec, with
// about twice the objects one Build allocates (163, 113 and 141) and one
// BuildSubdomains allocates (354, 259 and 194).
var gatedSpecs = []struct {
	name          string
	spec          SpecV2
	maxAllocs     float64 // Build
	maxSubdomains float64 // BuildSubdomains
}{
	{"ring9-grid13", SpecV2{V: 2, Source: "grid:rows=13,cols=13,seed=169", PartsX: 3, PartsY: 3, Topology: "ring"}, 330, 710},
	{"bigblock-grid65", SpecV2{V: 2, Source: "grid:rows=65,cols=65,seed=7", PartsX: 2, PartsY: 2, Topology: "uniform"}, 230, 520},
	{"spanner-lsg4", SpecV2{V: 2, Source: "spanner:n=1000,k=6,seed=1", NParts: 4, Topology: "uniform"}, 280, 390},
}

// BenchmarkSpecBuild times the set-up every member of a dist session pays
// before its first poll: source generation, tearing and the problem around it.
func BenchmarkSpecBuild(b *testing.B) {
	for _, tc := range gatedSpecs {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tc.spec.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSpecBuildAllocations holds each gated Build to its allocation ceiling.
func TestSpecBuildAllocations(t *testing.T) {
	for _, tc := range gatedSpecs {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := tc.spec.Build(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > tc.maxAllocs {
			t.Errorf("%s: Build allocates %.0f objects, want <= %.0f", tc.name, allocs, tc.maxAllocs)
		}
	}
}

// BenchmarkBuildSubdomains times the rest of the set-up in front of the first
// wave: every part's eq. (5.9) matrix assembled and factorised under the
// default impedances and the auto backend, as core.Solve builds them.
func BenchmarkBuildSubdomains(b *testing.B) {
	for _, tc := range gatedSpecs {
		b.Run(tc.name, func(b *testing.B) {
			prob, err := tc.spec.Build()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := prob.BuildSubdomains(nil, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBuildSubdomainsAllocations holds each gated problem's BuildSubdomains
// to its allocation ceiling.
func TestBuildSubdomainsAllocations(t *testing.T) {
	for _, tc := range gatedSpecs {
		prob, err := tc.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, _, err := prob.BuildSubdomains(nil, ""); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f objects", tc.name, allocs)
		if allocs > tc.maxSubdomains {
			t.Errorf("%s: BuildSubdomains allocates %.0f objects, want <= %.0f", tc.name, allocs, tc.maxSubdomains)
		}
	}
}
