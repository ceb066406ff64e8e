package topology

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/geom"
)

// TestYaoMeshConnectivity: every processor can reach every other processor
// over the Yao links (with deterministic patching for degenerate seeds), so
// Delay is total and the engines can map any subdomain adjacency onto the
// fabric.
func TestYaoMeshConnectivity(t *testing.T) {
	for _, seed := range []int64{1, 2, 7, 1108} {
		tp := YaoMesh(40, 6, seed, 10)
		for i := 0; i < tp.N(); i++ {
			for j := 0; j < tp.N(); j++ {
				d := tp.Delay(i, j) // panics if unreachable
				if i != j && !(d > 0) {
					t.Fatalf("seed %d: Delay(%d,%d) = %g, want positive", seed, i, j, d)
				}
			}
		}
	}
}

// TestYaoMeshOutDegree pins the defining Yao bound: each node picks at most
// one neighbour per cone, so its directed out-degree is at most k.
func TestYaoMeshOutDegree(t *testing.T) {
	const n, k = 60, 5
	pts := geom.Points(rand.New(rand.NewSource(3)), n)
	picks := geom.YaoPicks(pts, k)
	if len(picks) != n {
		t.Fatalf("picks for %d nodes, want %d", len(picks), n)
	}
	for i, ps := range picks {
		if len(ps) > k {
			t.Fatalf("node %d has %d Yao picks, bound is k=%d", i, len(ps), k)
		}
		seen := map[int]bool{}
		for _, j := range ps {
			if j == i {
				t.Fatalf("node %d picked itself", i)
			}
			if seen[j] {
				t.Fatalf("node %d picked %d twice", i, j)
			}
			seen[j] = true
		}
	}
}

// TestYaoMeshDeterministicAcrossGOMAXPROCS: the fabric is a pure function of
// (n, k, seed, baseDelay) — bit-identical link delays whatever the
// parallelism of the host process.
func TestYaoMeshDeterministicAcrossGOMAXPROCS(t *testing.T) {
	build := func(procs int) []Link {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		return YaoMesh(50, 6, 42, 10).Links()
	}
	a, b := build(1), build(4)
	if len(a) != len(b) {
		t.Fatalf("link counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].From != b[i].From || a[i].To != b[i].To ||
			math.Float64bits(a[i].Delay) != math.Float64bits(b[i].Delay) {
			t.Fatalf("link %d differs across GOMAXPROCS: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestYaoMeshDelaysDistanceProportional: all delays positive and the spread
// reflects the geometry (longer links cost more than the 0.1·base floor).
func TestYaoMeshDelays(t *testing.T) {
	tp := YaoMesh(30, 6, 9, 10)
	st := tp.Stats()
	if st.Count == 0 {
		t.Fatal("no links")
	}
	if !(st.Min > 1) { // 0.1·baseDelay floor with baseDelay = 10
		t.Fatalf("min delay %g, want > 1", st.Min)
	}
	if !(st.Max > st.Min) {
		t.Fatalf("delays are degenerate: min %g max %g", st.Min, st.Max)
	}
}

func TestYaoMeshValidation(t *testing.T) {
	mustPanic(t, "n", func() { YaoMesh(0, 6, 1, 10) })
	mustPanic(t, "k", func() { YaoMesh(4, 0, 1, 10) })
	mustPanic(t, "baseDelay", func() { YaoMesh(4, 6, 1, 0) })
}

// TestUniformValidation is the regression for the silent-degenerate-fabric
// bug: Uniform(1, -5, …) used to build a link-free machine without ever
// reaching SetLink's delay check.
func TestUniformValidation(t *testing.T) {
	mustPanic(t, "n >= 1", func() { Uniform(0, 10, "u") })
	mustPanic(t, "delay must be positive", func() { Uniform(1, -5, "u") })
	mustPanic(t, "delay must be positive", func() { Uniform(4, 0, "u") })
	mustPanic(t, "delay must be positive", func() { Uniform(4, math.NaN(), "u") })
	if got := Uniform(1, 10, "u").N(); got != 1 {
		t.Fatalf("Uniform(1, 10): N = %d, want 1", got)
	}
}

// TestRingValidation: same regression for Ring — a 1-processor ring has no
// links, so a non-positive delay used to slip through.
func TestRingValidation(t *testing.T) {
	mustPanic(t, "n >= 1", func() { Ring(0, 10) })
	mustPanic(t, "delay must be positive", func() { Ring(1, 0) })
	mustPanic(t, "delay must be positive", func() { Ring(5, -1) })
	mustPanic(t, "delay must be positive", func() { Ring(5, math.NaN()) })
	if got := Ring(1, 10).N(); got != 1 {
		t.Fatalf("Ring(1, 10): N = %d, want 1", got)
	}
}

func TestParseTopologyRegistry(t *testing.T) {
	tests := []struct {
		spec  string
		n     int
		wantN int
	}{
		{"", 3, 3},
		{"uniform", 5, 5},
		{"ring", 4, 4},
		{"mesh4x4", 8, 16},
		{"mesh8x8", 8, 64},
		{"torus", 4, 4}, // the smallest square torus that holds the caller's count
		{"torus", 5, 9},
		{"torus", 1, 4},
		{"yao:n=12,k=5,seed=2", 4, 12},
		{"yao", 6, 6}, // n defaults to the caller's processor count
	}
	for _, tc := range tests {
		tp, err := ParseTopology(tc.spec, tc.n, 10)
		if err != nil {
			t.Fatalf("ParseTopology(%q): %v", tc.spec, err)
		}
		if tp.N() != tc.wantN {
			t.Fatalf("ParseTopology(%q): N = %d, want %d", tc.spec, tp.N(), tc.wantN)
		}
	}
	if _, err := ParseTopology("nosuch", 4, 10); err == nil ||
		!strings.Contains(err.Error(), "unknown topology") {
		t.Fatalf("unknown topology: err = %v", err)
	}
	for _, tc := range []struct{ spec, wantErr string }{
		{"mesh4x4:px=2", "takes no parameters"},
		{"torus:px=2", "takes no parameters"},
		{"yao:bogus=1", "bogus"},
		{"yao:k=0", "1 <= k <= 64"},
		{"yao:k=65", "1 <= k <= 64"},
		{"yao:n=0", "yao n must be in [1,2048]"},
		{"yao:n=2049", "yao n must be in [1,2048]"},
		{"yao:n=4000000000", "yao n must be in [1,2048]"},
	} {
		if _, err := ParseTopology(tc.spec, 4, 10); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParseTopology(%q): err = %v, want one mentioning %q", tc.spec, err, tc.wantErr)
		}
	}
	if _, err := ParseTopology("yao", MaxProcessors+1, 10); err == nil {
		t.Error("yao defaulting to more processors than the limit should be rejected")
	}
}

func mustPanic(t *testing.T, wantSubstr string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic mentioning %q, got none", wantSubstr)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v is not a string", r)
		}
		if !strings.Contains(msg, wantSubstr) {
			t.Fatalf("panic %q does not mention %q", msg, wantSubstr)
		}
	}()
	fn()
}
