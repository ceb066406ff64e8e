package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/factor"
	"repro/internal/graph"
	"repro/internal/iterative"
	"repro/internal/partition"
	"repro/internal/sparse"
)

func sameBits(a, b sparse.Vec) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestEveryMethodSolves runs every -method the help lists on a small source:
// each must solve it to a relative residual of 1e-6.
func TestEveryMethodSolves(t *testing.T) {
	for _, method := range methods {
		o := testOptions(method, factor.Settings{})
		sys, err := loadSystem(o)
		if err != nil {
			t.Fatal(err)
		}
		x, summary, err := solve(o, sys)
		if err != nil {
			t.Errorf("-method %s: %v", method, err)
			continue
		}
		if rel := sys.A.Residual(x, sys.B).Norm2() / sys.B.Norm2(); !(rel <= 1e-6) {
			t.Errorf("-method %s: relative residual %g (%s)", method, rel, summary)
		}
	}
}

func testOptions(method string, fs factor.Settings) options {
	return options{
		source: "poisson:nx=12,ny=12",
		method: method, parts: 4, topo: "uniform",
		maxTime: 1e6, maxIter: 5000, tol: 1e-9,
		fs: fs,
	}
}

// TestFactorSettingsReachEveryMethod: what -localsolver and -ordering add up
// to is handed to every method that factorises. Every backend and ordering is
// deterministic, so a method that dropped the settings would compute the same
// bytes under all of them; each method must instead solve the system under
// each one and give a different answer at the last bit. And the settings
// reach nothing after their run: a default run that follows an nd-ordered one
// is back under auto.
func TestFactorSettingsReachEveryMethod(t *testing.T) {
	settings := []factor.Settings{
		{Backend: factor.SparseCholesky, Ordering: factor.OrderND},
		{Backend: factor.SparseCholesky, Ordering: factor.OrderRCM},
		{Backend: factor.DenseLU},
	}
	for _, method := range []string{"direct", "dtm", "vtm", "mixed", "block-jacobi", "async-jacobi"} {
		xs := make([]sparse.Vec, len(settings))
		for i, fs := range settings {
			o := testOptions(method, fs)
			sys, err := loadSystem(o)
			if err != nil {
				t.Fatal(err)
			}
			x, summary, err := solve(o, sys)
			if err != nil {
				t.Fatalf("%s under %+v: %v", method, fs, err)
			}
			if rel := sys.A.Residual(x, sys.B).Norm2() / sys.B.Norm2(); rel > 1e-6 {
				t.Errorf("%s under %+v: relative residual %g (%s)", method, fs, rel, summary)
			}
			if method == "direct" && fs.Ordering == factor.OrderND && !strings.Contains(summary, "(nd ordering") {
				t.Errorf("direct under -ordering nd reported %q", summary)
			}
			xs[i] = x
			for j := range i {
				if sameBits(xs[j], x) {
					t.Errorf("%s computed the same bytes under %+v and %+v", method, settings[j], fs)
				}
			}
		}
	}

	o := testOptions("direct", factor.Settings{Backend: factor.SparseCholesky})
	sys, err := loadSystem(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, summary, err := solve(o, sys); err != nil || !strings.Contains(summary, "(rcm ordering") {
		t.Errorf("default direct run after nd-ordered ones reported %q, err %v", summary, err)
	}
}

// TestBlockBaselinesTearLikeDTM: block-jacobi and async-jacobi tear with
// LevelSetGrow, as the DTM methods do, so a comparison on the command line is
// like for like. On a 12×12 Poisson grid the level-set tear and four strips
// differ, and each baseline must compute the level-set tear's bytes.
func TestBlockBaselinesTearLikeDTM(t *testing.T) {
	o := testOptions("block-jacobi", factor.Settings{})
	sys, err := loadSystem(o)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromSystem(sys.A, sys.B)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := machine(o)
	if err != nil {
		t.Fatal(err)
	}
	tears := map[string]partition.Assignment{
		"levelset": partition.LevelSetGrow(g, o.parts),
		"strips":   partition.GridBlocks(sys.Dim(), 1, o.parts, 1),
	}
	baselines := map[string]func(partition.Assignment) (sparse.Vec, error){
		"block-jacobi": func(a partition.Assignment) (sparse.Vec, error) {
			x, _, err := iterative.BlockJacobi(sys.A, sys.B, a, iterative.Config{MaxIterations: o.maxIter, Tol: o.tol})
			return x, err
		},
		"async-jacobi": func(a partition.Assignment) (sparse.Vec, error) {
			res, err := iterative.AsyncBlockJacobi(sys.A, sys.B, a, topo, iterative.AsyncOptions{MaxTime: o.maxTime, Tol: o.tol})
			if err != nil {
				return nil, err
			}
			return res.X, nil
		},
	}
	for method, baseline := range baselines {
		o.method = method
		x, summary, err := solve(o, sys)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if rel := sys.A.Residual(x, sys.B).Norm2() / sys.B.Norm2(); rel > 1e-6 {
			t.Errorf("%s: relative residual %g (%s)", method, rel, summary)
		}
		for name, a := range tears {
			want, err := baseline(a)
			if err != nil {
				t.Fatalf("%s on the %s tear: %v", method, name, err)
			}
			if same := sameBits(x, want); same != (name == "levelset") {
				t.Errorf("%s: same bytes as on the %s tear = %v", method, name, same)
			}
		}
	}
}

// TestRunDrivesTheCommandBody drives the whole command body once and the
// ways a run can fail to name its system.
func TestRunDrivesTheCommandBody(t *testing.T) {
	if err := run(testOptions("direct", factor.Settings{})); err != nil {
		t.Fatal(err)
	}
	bad := testOptions("direct", factor.Settings{})
	bad.source = "no-such-scheme:n=3"
	if err := run(bad); err == nil {
		t.Error("an unknown source scheme must be an error")
	}
	if _, err := loadSystem(options{source: "grid:rows=4,cols=4,seed=1", matrix: "A.mtx"}); err == nil {
		t.Error("-source with -matrix must be refused")
	}
	// A source carries its own right-hand side: -rhs without -matrix is
	// refused by name rather than dropped.
	for _, o := range []options{
		{source: "poisson:nx=5,ny=5", rhs: "/nonexistent/b.vec", method: "cg"},
		{source: "mm:A.mtx@0123456789abcdef", rhs: "b.vec"},
		{rhs: "b.vec"},
	} {
		if _, err := loadSystem(o); err == nil || !strings.HasPrefix(err.Error(), "-rhs ") {
			t.Errorf("-source %q -rhs %q: err %v, want a refusal naming -rhs", o.source, o.rhs, err)
		}
	}
	if _, err := loadSystem(options{}); err == nil {
		t.Error("a run that names no system must be refused")
	}
	sys, err := loadSystem(options{source: "grid:rows=4,cols=4,seed=1"})
	if err != nil || sys.Dim() != 16 {
		t.Errorf("-source grid: built %d unknowns, err %v", sys.Dim(), err)
	}
}

// TestMachineResolvesThroughRegistry: -topo is a topology-registry string and
// nothing else; torus, once sized here, is the registry's.
func TestMachineResolvesThroughRegistry(t *testing.T) {
	o := testOptions("dtm", factor.Settings{})
	o.parts, o.topo = 5, "torus"
	topo, err := machine(o)
	if err != nil || topo.N() != 9 || topo.Name() != "torus 3x3" {
		t.Fatalf("-topo torus for 5 parts: %v, err %v", topo, err)
	}
	sys, err := loadSystem(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := distributedProblem(o, sys); err != nil {
		t.Errorf("tearing onto the torus: %v", err)
	}
	o.topo = "no-such-machine"
	if _, err := machine(o); err == nil {
		t.Error("an unregistered machine must be refused")
	}
}

// TestOversizedPartsIsAnErrorNotAPanic: -parts larger than the system used to
// reach the partitioners' panics, and -parts 0 the machine's (async-jacobi
// built it first); every tearing method now exits 1 with one line naming n
// and the request, and no goroutine trace.
func TestOversizedPartsIsAnErrorNotAPanic(t *testing.T) {
	for _, parts := range []int{9, 0} {
		for _, method := range []string{"dtm", "vtm", "live", "block-jacobi", "async-jacobi"} {
			o := testOptions(method, factor.Settings{})
			o.source, o.parts = "tridiag:n=5", parts
			sys, err := loadSystem(o)
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = solve(o, sys)
			if arg := fmt.Sprint("-parts ", parts); err == nil || !strings.Contains(err.Error(), arg) || !strings.Contains(err.Error(), "5 unknowns") {
				t.Errorf("%s: %s on 5 unknowns returned %v, want an error naming both", method, arg, err)
			}
		}
	}
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	bin := filepath.Join(t.TempDir(), "dtmsolve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{{"-method", "dtm", "-parts", "9"}, {"-method", "async-jacobi", "-parts", "0"}} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, append([]string{"-source", "tridiag:n=5"}, args...)...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: err %v, want exit code 1", args, err)
		}
		if msg := stderr.String(); !strings.Contains(msg, "dtmsolve: -parts "+args[3]) || strings.Contains(msg, "goroutine") || strings.Count(msg, "\n") != 1 {
			t.Errorf("%v: stderr is not the one-line error:\n%s", args, msg)
		}
	}
}

// TestEngineMethodSummaries pins what the three core.Solve methods and live
// print after "method=<name>  ": the virtual-time engines are deterministic,
// so their line is held byte for byte (recorded at a1bc04f, before the four
// blocks became rows of engineMethods); a live run's counts vary per run, so
// its line is held by shape, on the converged path and on the deadline path,
// which reports the partial result instead of failing.
func TestEngineMethodSummaries(t *testing.T) {
	summary := func(method string, set func(*options)) string {
		t.Helper()
		o := testOptions(method, factor.Settings{})
		if set != nil {
			set(&o)
		}
		sys, err := loadSystem(o)
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := solve(o, sys)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		return got
	}
	for _, tc := range []struct{ method, faults, want string }{
		{"dtm", "", "converged=true at t=756, 591 local solves, 860 messages, twin gap 6.77e-10"},
		{"vtm", "", "converged=true after 81 synchronous sweeps, twin gap 8.03e-11"},
		{"mixed", "", "converged=true at t=756 after 1 async phases and 0 sync sweeps, 591 local solves, 860 messages"},
		{"dtm", "seed=7,drop=0.05", "converged=true at t=1192, 831 local solves, 1156 messages, twin gap 3.2e-12\n" +
			"faults: 55 dropped, 0 duplicated, 0 delayed, 9 retransmissions, 0 crashes / 0 restarts (0 snapshots)"},
		{"mixed", "seed=7,drop=0.05", "converged=true at t=1192 after 1 async phases and 0 sync sweeps, 831 local solves, 1156 messages\n" +
			"faults: 55 dropped, 0 duplicated, 0 delayed, 9 retransmissions, 0 crashes / 0 restarts (0 snapshots)"},
	} {
		if got := summary(tc.method, func(o *options) { o.faults = tc.faults }); got != tc.want {
			t.Errorf("-method %s -faults %q:\n got %q\nwant %q", tc.method, tc.faults, got, tc.want)
		}
	}
	if got := summary("live", nil); !strings.HasPrefix(got, "converged=true after ") || !strings.Contains(got, " s of real asynchronous execution, ") {
		t.Errorf("-method live: %q", got)
	}
	if got := summary("live", func(o *options) { o.timeout = time.Millisecond }); !strings.HasPrefix(got, "converged=false after 0.0") || !strings.Contains(got, " s of real asynchronous execution, ") {
		t.Errorf("-method live -timeout 1ms must report its partial result, got %q", got)
	}

	o := testOptions("vtm", factor.Settings{})
	o.faults = "seed=7,drop=0.05"
	sys, err := loadSystem(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := solve(o, sys); err == nil || err.Error() != `-faults applies to methods dtm, mixed and live, not "vtm"` {
		t.Errorf("-method vtm -faults: %v", err)
	}
}
