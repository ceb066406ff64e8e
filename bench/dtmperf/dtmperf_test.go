package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// runCmd runs the command and returns its exit code and output.
func runCmd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestSuite drives the whole harness: every workload, the traced arm, the
// pins of the hold-out seed, the report, results.json and the span files.
func TestSuite(t *testing.T) {
	dir := t.TempDir()
	pins := filepath.Join(dir, "pins.json")
	code, out, errOut := runCmd(t, "-reps", "1", "-trace", "1", "-seed", "2", "-out", dir, "-writepins", pins)
	if code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, out, errOut)
	}
	lanes := []string{"des/ring9-grid13", "des/ring9-grid13-faults", "des/bigblock-grid65", "des/direct-grid65", "des/spanner-lsg4",
		"dist-tcp/ring9-grid13", "dist-tcp/bigblock-grid65", "dist-tcp/spanner-lsg4"}
	for _, l := range lanes {
		if !strings.Contains(out, l+"   failed/attempted = 0/1\n") {
			t.Errorf("no clean result line for %s", l)
		}
	}
	for _, d := range allMetrics() {
		if !strings.Contains(out, "  "+d.name+" ") {
			t.Errorf("metric %s not printed", d.name)
		}
	}
	for _, want := range []string{"commit=", "nproc=", "GOMAXPROCS=", "seed=2", "reps=1", "load average (1 min) at start", "load average (1 min) at end", "trace_overhead_ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q", want)
		}
	}

	var res struct {
		Lanes map[string]struct {
			Attempted int
			EndToEnd  map[string]stat `json:"end_to_end"`
			PerLayer  map[string]stat `json:"per_layer"`
		}
	}
	readJSON(t, filepath.Join(dir, "results.json"), &res)
	if got := res.Lanes["des/bigblock-grid65"]; got.Attempted != 1 || got.EndToEnd["tts_s"].Median <= 0 || got.PerLayer["factor.local_solve_us"].Median <= 0 {
		t.Errorf("results.json entry for des/bigblock-grid65: %+v", got)
	}

	// Span files: every rep's self times add up to its root span exactly, and
	// the root has the layer calls as children.
	for _, l := range lanes {
		var tf struct{ Spans []span }
		readJSON(t, filepath.Join(dir, "trace-"+strings.ReplaceAll(l, "/", "-")+".json"), &tf)
		self, root, children := map[int]int64{}, map[int]int64{}, map[int]int{}
		for _, s := range tf.Spans {
			if s.SelfNS < 0 {
				t.Errorf("%s: span %s has negative self time", l, s.Name)
			}
			self[s.Rep] += s.SelfNS
			if s.Parent < 0 {
				root[s.Rep] = s.EndNS - s.StartNS
			} else {
				children[s.Rep]++
			}
		}
		if len(root) != 1 {
			t.Errorf("%s: %d traced reps, want 1", l, len(root))
		}
		for rep, d := range root {
			if self[rep] != d || children[rep] < 3 {
				t.Errorf("%s rep %d: self times sum to %d ns over %d children, root is %d ns", l, rep, self[rep], children[rep], d)
			}
		}
	}

	// The pins written are the ones read back for that seed.
	var pf pinFile
	readJSON(t, pins, &pf)
	got := pf.Seeds["2"]["ring9-grid13"]
	if pf.GOARCH != runtime.GOARCH || got["core.solves_to_tol"] <= 0 || got["sparse.nnz"] <= 0 || len(pf.Seeds["2"]) != 5 {
		t.Errorf("pins: %+v", pf)
	}
	if err := mergePins(pins, 1, map[string]map[string]float64{}); err != nil {
		t.Fatal(err)
	}
	readJSON(t, pins, &pf)
	if len(pf.Seeds) != 2 {
		t.Errorf("merging a second seed left %d seeds", len(pf.Seeds))
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestDriverContract checks the result line BENCHMARK.json's driver reads.
func TestDriverContract(t *testing.T) {
	for _, tc := range []struct {
		workload, trace string
		defs            []metricDef
	}{
		{"des", "0", contractEndToEnd()},
		{"des", "1", contractPerLayer()},
		{"dist-tcp", "0", contractEndToEnd()},
		{"dist-tcp", "1", contractPerLayer()},
	} {
		code, out, errOut := runCmd(t, "--workload", tc.workload, "--seed", "3", "--seconds", "1", "--trace", tc.trace, "-out", t.TempDir())
		if code != 0 {
			t.Fatalf("%s: exit %d\n%s\n%s", tc.workload, code, out, errOut)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var res map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line is not JSON: %v", tc.workload, err)
		}
		if len(res) != 4 || string(res["correct"]) != "true" || string(res["failed"]) != "0" || string(res["attempted"]) == "0" {
			t.Errorf("%s: result %s", tc.workload, lines[len(lines)-1])
		}
		var metrics map[string]struct {
			Value float64
			Unit  string
		}
		if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(tc.defs) {
			t.Errorf("%s: %d metrics, want %d", tc.workload, len(metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			if m, ok := metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: metric %s = %+v", tc.workload, d.name, m)
			} else if tc.trace == "0" && !(m.Value > 0) {
				t.Errorf("%s: %s = %v, must never be 0", tc.workload, d.name, m.Value)
			}
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-seconds", "1"},
		{"-trace", "2"},
		{"-reps", "0"},
		{"stray"},
		{"-nosuchflag"},
	} {
		if code, _, errOut := runCmd(t, args...); code != 2 || errOut == "" {
			t.Errorf("%v: exit %d, stderr %q", args, code, errOut)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which the driver reads,
// in step with the tables the program prints from.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	readJSON(t, filepath.Join("..", "..", "BENCHMARK.json"), &bj)
	if strings.Join(bj.Command, " ") != "bash bench/run.sh" || strings.Join(bj.Paths, " ") != "bench" {
		t.Errorf("command %v paths %v", bj.Command, bj.Paths)
	}
	if len(bj.Workloads) != len(engines) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(engines))
	}
	for i, e := range engines {
		if bj.Workloads[i].Name != e.name || bj.Workloads[i].Why != e.why || len(e.why) > 200 {
			t.Errorf("workload %d: %+v, code has %s: %s", i, bj.Workloads[i], e.name, e.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != better {
				t.Errorf("%s %d: %+v, code has %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, contractEndToEnd())
	same("per_layer", bj.PerLayer, contractPerLayer())
	if len(bj.EndToEnd) > 16 || len(bj.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics: the format allows 16 and 128", len(bj.EndToEnd), len(bj.PerLayer))
	}
	// A bound has to cover the run-to-run spread over different seeds and
	// hours: never tighter than the A/A bound of any lane it applies to.
	for _, m := range bj.EndToEnd {
		name := m.Name[strings.LastIndex(m.Name, ".")+1:]
		for i := range engines {
			for _, p := range problems() {
				if !p.gated || name == "tts_s" && !strings.HasPrefix(m.Name, p.name+".") {
					continue
				}
				if b, ok := bound(name, &lane{p: p, eng: &engines[i]}); !ok || m.Bound == nil || *m.Bound < b || *m.Bound > 0.25 {
					t.Errorf("%s on %s/%s: BENCHMARK.json bound %v, A/A bound %v", m.Name, engines[i].name, p.name, m.Bound, b)
				}
			}
		}
	}
}

func TestVerifierFailurePaths(t *testing.T) {
	direct := problems()[3]
	l, err := newLane(direct, &engines[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	in := l.in
	if err := in.check(in.xref, true); err != nil {
		t.Errorf("reference rejected: %v", err)
	}
	off := in.xref.Clone()
	off[0] += 2e-6
	doubled := in.xref.Clone()
	doubled.Scale(2)
	for _, tc := range []struct {
		name      string
		x         []float64
		converged bool
		want      string
	}{
		{"not converged", in.xref, false, "did not converge"},
		{"short", in.xref[:3], true, "entries"},
		{"residual", doubled, true, "residual"},
		{"distance", off, true, "x_ref"},
	} {
		if err := in.check(tc.x, tc.converged); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v", tc.name, err)
		}
	}
	// Another seed is another right-hand side, so another answer.
	l2, err := newLane(direct, &engines[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if in.check(l2.in.xref, true) == nil {
		t.Error("seed 2's answer passes as seed 1's")
	}
}

func TestSummarizeFailures(t *testing.T) {
	p := problems()[0]
	des := func(pin map[string]float64) *lane { return &lane{p: p, eng: &engines[0], pin: pin} }
	dist := &lane{p: p, eng: &engines[1]}
	ok := func(solves float64) sample {
		return sample{metrics: map[string]float64{"tts_s": 1, "core.solves_to_tol": solves}}
	}
	s := summarize(des(nil), []sample{ok(10), ok(10), failed(errors.New("boom")), failed(errors.New("boom"))})
	if s.attempted != 4 || s.failed != 2 || len(s.reasons) != 1 || s.stats["tts_s"].N != 2 {
		t.Errorf("failed reps: %+v", s)
	}
	if s := summarize(des(nil), []sample{ok(10), ok(11)}); s.failed != 2 || !strings.Contains(s.reasons[0], "differs between reps") {
		t.Errorf("drifting counter: %+v", s)
	}
	if s := summarize(des(map[string]float64{"core.solves_to_tol": 12}), []sample{ok(10)}); s.failed != 1 || !strings.Contains(s.reasons[0], "pinned 12") {
		t.Errorf("pin mismatch: %+v", s)
	}
	if s := summarize(des(map[string]float64{"core.solves_to_tol": 10}), []sample{ok(10)}); s.failed != 0 {
		t.Errorf("pin match: %+v", s)
	}
	if s := summarize(dist, []sample{ok(10), ok(11)}); s.failed != 0 {
		t.Errorf("dist counters are not exact: %+v", s)
	}
	var b strings.Builder
	summarize(des(nil), []sample{failed(errors.New("boom"))}).render(&b, des(nil), endToEnd)
	if !strings.Contains(b.String(), "FAILED: boom") || !strings.Contains(b.String(), "1/1") {
		t.Errorf("render: %s", b.String())
	}
}

func TestAATable(t *testing.T) {
	ps := problems()
	lanes := []*lane{{p: ps[0], eng: &engines[0]}, {p: ps[3], eng: &engines[0]}}
	set := func(tts, vt float64) summary {
		return summarize(lanes[0], []sample{{metrics: map[string]float64{"tts_s": tts, "setup_s": 1, "cpu_s": 1, "alloc_mb": 1, "iterate_s": 1, "virtual_time_to_tol": vt}}})
	}
	var b strings.Builder
	if !renderAA(&b, lanes, []summary{set(1, 5), set(1, 5)}, []summary{set(1.05, 5), set(0.95, 5)}) || strings.Contains(b.String(), "EXCEEDED") {
		t.Errorf("gaps inside the bounds reported as exceeded:\n%s", b.String())
	}
	if strings.Count(b.String(), "iterate_s") != 1 {
		t.Errorf("iterate_s carries no bound on the one-part problem:\n%s", b.String())
	}
	b.Reset()
	if renderAA(&b, lanes, []summary{set(1, 5), set(1, 5)}, []summary{set(0.7, 5), set(1, 6)}) || strings.Count(b.String(), "EXCEEDED") != 2 {
		t.Errorf("a 30%% faster set and a moved exact counter must both exceed:\n%s", b.String())
	}
}

// TestQuantilesMatchPython pins statOf to statistics.quantiles(xs, n=4) and
// statistics.quantiles(xs, n=10)[8], clamped to the extremes.
func TestQuantilesMatchPython(t *testing.T) {
	for _, tc := range []struct{ xs, want []float64 }{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25, 9.9}},
		{[]float64{3, 1, 2}, []float64{1, 2, 3, 3}},
		{[]float64{1, 2}, []float64{1, 1.5, 2, 2}},
		{[]float64{7}, []float64{7, 7, 7, 7}},
	} {
		st := statOf(tc.xs)
		if got := []float64{st.Q1, st.Median, st.Q3, st.P90}; !slices.Equal(got, tc.want) {
			t.Errorf("%v: got %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestPinsCoverSeeds1And2: the committed pins cover seeds 1 and 2 of every
// problem and no other seed.
func TestPinsCoverSeeds1And2(t *testing.T) {
	var pf pinFile
	if err := json.Unmarshal(pinsJSON, &pf); err != nil {
		t.Fatal(err)
	}
	if pf.GOARCH != runtime.GOARCH {
		t.Skipf("pins recorded on %s", pf.GOARCH)
	}
	for _, seed := range []int64{1, 2} {
		for _, p := range problems() {
			if pin := pinned(seed, p.name); pin["core.solves_to_tol"] < 1 || pin["sparse.nnz"] < 1 {
				t.Errorf("seed %d %s: pin %v", seed, p.name, pin)
			}
		}
	}
	if pinned(3, "ring9-grid13") != nil {
		t.Error("seed 3 is not pinned")
	}
}
