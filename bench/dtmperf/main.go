// Command dtmperf is this repository's performance benchmark: time to
// solution by layer on five named problems and two engines, with exact work
// counters, a host-speed correction and an A/A check. bench/README.md is its
// manual.
//
// It has two modes. With -seconds > 0 it is the entry point BENCHMARK.json
// names: one workload (one engine solving the three gated problems in turn),
// closed loop (one client, one solve at a time) for that long — hundreds of
// solves — and the result as one JSON object on the last line. Without it, it
// runs the whole suite: every lane, interleaved across passes.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

func main() {
	// One P: the DES engine is single-threaded anyway, and on the few shared
	// cores this is sized for a second thread (concurrent GC, the supernodal
	// factorisation's subtree workers, the dist members side by side) only adds
	// a second chance of running on a core a neighbour is using: bigblock's
	// tts_s was a fifth slower and twice as scattered with two (README, "Host
	// noise"). What parallel code gains is not measurable on such a host.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	reps      int
	aa        bool
	out       string
	writePins string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("dtmperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run only this BENCHMARK.json workload: the gated problems on engine des or dist-tcp (required with -seconds)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: right-hand sides and fault fates (seed 2 is the hold-out)")
	fs.IntVar(&o.seconds, "seconds", 0, "driver mode: measure the one -workload for this long and end with a JSON result line")
	fs.IntVar(&o.trace, "trace", 0, "1: traced reps — per-layer metrics and bench/out/trace-<engine>-<problem>.json (suite mode: a second arm beside the untraced one)")
	fs.IntVar(&o.reps, "reps", 50, "suite mode: timed passes (one rep of every lane each) after one warm-up pass")
	fs.BoolVar(&o.aa, "aa", false, "suite mode: two interleaved sets of the same build; non-zero exit if they differ by more than a bound")
	fs.StringVar(&o.out, "out", "bench/out", "directory for trace and result files")
	fs.StringVar(&o.writePins, "writepins", "", "suite mode: merge this seed's exact counters into the given pins.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.trace != 0 && o.trace != 1 || o.reps < 1 || o.seconds < 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "dtmperf: -trace is 0 or 1, -reps at least 1, -seconds not negative, and there are no positional arguments")
		return 2
	}
	if o.seconds > 0 && o.workload == "" {
		fmt.Fprintln(stderr, "dtmperf: -seconds needs -workload")
		return 2
	}
	// Every problem on the DES engine, the gated ones on the dist engine too;
	// -workload keeps one engine's gated problems.
	var lanes []*lane
	known := o.workload == ""
	for i := range engines {
		eng := &engines[i]
		known = known || eng.name == o.workload
		for _, p := range problems() {
			if eng.dist && !p.gated || o.workload != "" && (eng.name != o.workload || !p.gated) {
				continue
			}
			l, err := newLane(p, eng, o.seed)
			if err != nil {
				fmt.Fprintf(stderr, "dtmperf: preparing %s: %v\n", p.name, err)
				return 1
			}
			lanes = append(lanes, l)
		}
	}
	if !known {
		fmt.Fprintf(stderr, "dtmperf: unknown workload %q\n", o.workload)
		return 2
	}
	if o.seconds > 0 {
		return driver(o, lanes, stdout, stderr)
	}
	return suite(o, lanes, stdout, stderr)
}

// passes runs timed passes over every lane until more(pass) says no, after one
// discarded warm-up pass (page faults, lazy initialisation, the loopback
// stack's first connections). arms[a][lane] is the tracer of arm a (nil:
// untraced); every arm runs each rep back to back, the arm that goes first
// alternating, and the order of lanes rotates from pass to pass so none always
// runs in the same neighbour's wake. The calibration kernel runs between the
// reps, and each rep's timings are put at nominal host speed by the two
// kernels around it. out[arm][lane] are the samples.
func passes(lanes []*lane, arms [][]*tracer, more func(pass int) bool) [][][]sample {
	out := make([][][]sample, len(arms))
	for a := range out {
		out[a] = make([][]sample, len(lanes))
	}
	for _, l := range lanes {
		l.rep(nil)
	}
	before := calibrate()
	for pass := 0; more(pass); pass++ {
		for k := range lanes {
			i := (k + pass) % len(lanes)
			for k := range arms {
				a := (k + pass) % len(arms)
				s := lanes[i].rep(arms[a][i])
				after := calibrate()
				s.atNominalSpeed(before, after)
				before = after
				out[a][i] = append(out[a][i], s)
			}
		}
	}
	return out
}

// driver is the BENCHMARK.json entry point: passes over one engine's gated
// problems for o.seconds (warm-up pass included), one value per metric out.
func driver(o options, lanes []*lane, stdout, stderr io.Writer) int {
	start := time.Now()
	host := header(stdout, o)
	arm := make([]*tracer, len(lanes))
	if o.trace == 1 {
		for i := range arm {
			arm[i] = newTracer()
		}
	}
	budget := time.Duration(o.seconds) * time.Second
	samples := passes(lanes, [][]*tracer{arm}, func(pass int) bool {
		return pass == 0 || time.Since(start) < budget
	})[0]

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	defs := endToEnd
	if o.trace == 1 {
		defs = allMetrics()
	}
	var b strings.Builder
	for i, l := range lanes {
		sum := summarize(l, samples[i])
		sum.render(&b, l, defs)
		res.Attempted += sum.attempted
		res.Failed += sum.failed
		if arm[i] != nil {
			if err := arm[i].write(o.out, l, o.seed); err != nil {
				fmt.Fprintf(stderr, "dtmperf: %v\n", err)
				return 1
			}
			for _, d := range allMetrics()[1:] {
				if !d.onePart {
					res.Metrics[l.p.name+"."+d.name] = value{sum.stats[d.name].Median, d.unit}
				}
			}
			continue
		}
		res.Metrics[l.p.name+".tts_s"] = value{sum.stats["tts_s"].Median, "s"}
		for _, d := range contractTotals {
			res.Metrics[d.name] = value{res.Metrics[d.name].Value + sum.stats[d.name].Median, d.unit}
		}
	}
	res.Correct = res.Failed == 0
	footer(&b, host)
	io.WriteString(stdout, b.String())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "dtmperf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// suite runs every lane and prints the report. Arm 0 is the untraced set all
// end-to-end numbers come from; -aa adds a second untraced arm and -trace 1 a
// traced one, interleaved with it rep by rep.
func suite(o options, lanes []*lane, stdout, stderr io.Writer) int {
	host := header(stdout, o)
	arms := [][]*tracer{make([]*tracer, len(lanes))}
	if o.aa {
		arms = append(arms, make([]*tracer, len(lanes)))
	}
	var tracers []*tracer
	if o.trace == 1 {
		for range lanes {
			tracers = append(tracers, newTracer())
		}
		arms = append(arms, tracers)
	}
	samples := passes(lanes, arms, func(pass int) bool { return pass < o.reps })

	ok := true
	var b strings.Builder
	results := map[string]any{}
	pins := map[string]map[string]float64{}
	sums := make([][]summary, len(arms))
	for a := range sums {
		sums[a] = make([]summary, len(lanes))
	}
	for i, l := range lanes {
		for a := range sums {
			sums[a][i] = summarize(l, samples[a][i])
			ok = ok && sums[a][i].failed == 0
		}
		sum := sums[0][i]
		b.WriteString("\n")
		sum.render(&b, l, endToEnd)
		entry := map[string]any{"attempted": sum.attempted, "failed": sum.failed, "end_to_end": sum.stats}
		if tracers != nil {
			tsum := sums[len(arms)-1][i]
			b.WriteString("  traced: ")
			tsum.render(&b, l, perLayer)
			fmt.Fprintf(&b, "  %-28s %-6s %14.4f\n", "trace_overhead_ratio", "ratio", tsum.stats["tts_s"].Median/sum.stats["tts_s"].Median)
			entry["per_layer"] = tsum.stats
			if err := tracers[i].write(o.out, l, o.seed); err != nil {
				fmt.Fprintf(stderr, "dtmperf: %v\n", err)
				return 1
			}
		}
		results[l.name()] = entry
		if !l.eng.dist {
			pins[l.p.name] = map[string]float64{}
			for _, d := range allMetrics() {
				if st, have := sum.stats[d.name]; have && d.exact {
					pins[l.p.name][d.name] = st.Median
				}
			}
		}
	}
	if o.aa {
		ok = renderAA(&b, lanes, sums[0], sums[1]) && ok
	}
	footer(&b, host)
	io.WriteString(stdout, b.String())

	if err := writeJSON(filepath.Join(o.out, "results.json"), map[string]any{"seed": o.seed, "reps": o.reps, "lanes": results}); err != nil {
		fmt.Fprintf(stderr, "dtmperf: %v\n", err)
		return 1
	}
	if o.writePins != "" {
		if err := mergePins(o.writePins, o.seed, pins); err != nil {
			fmt.Fprintf(stderr, "dtmperf: %v\n", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// renderAA prints, per lane × end-to-end metric, both sets' medians, their
// relative gap and the bound, and reports whether every gap is inside.
func renderAA(b *strings.Builder, lanes []*lane, a, bb []summary) bool {
	ok := true
	fmt.Fprintf(b, "\nA/A: two interleaved sets of the same build\n")
	fmt.Fprintf(b, "  %-28s %-20s %14s %14s %9s %7s\n", "lane", "metric", "set A", "set B", "gap", "bound")
	for i, l := range lanes {
		for _, d := range endToEnd {
			bd, bounded := bound(d.name, l)
			if !bounded {
				continue
			}
			ma, mb := a[i].stats[d.name].Median, bb[i].stats[d.name].Median
			gap := relGap(ma, mb)
			verdict := ""
			if gap > bd || -gap > bd {
				verdict, ok = "  EXCEEDED", false
			}
			fmt.Fprintf(b, "  %-28s %-20s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", l.name(), d.name, ma, mb, 100*gap, 100*bd, verdict)
		}
	}
	return ok
}

// hostState is what /proc says about the machine at one instant: the 1-minute
// load average and the CPU ticks so far, those stolen by the hypervisor apart.
type hostState struct {
	load, ticks, stolen float64
	ok                  bool
}

func readHost() hostState {
	var h hostState
	load, err1 := os.ReadFile("/proc/loadavg")
	stat, err2 := os.ReadFile("/proc/stat")
	if err1 != nil || err2 != nil {
		return h
	}
	if _, err := fmt.Sscan(string(load), &h.load); err != nil {
		return h
	}
	// "cpu user nice system idle iowait irq softirq steal ..."
	fields := strings.Fields(strings.SplitN(string(stat), "\n", 2)[0])
	if len(fields) < 9 {
		return h
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return h
		}
		h.ticks += v
		if i == 7 {
			h.stolen = v
		}
	}
	h.ok = true
	return h
}

// header prints the run's identity and the host's load at the start, with a
// warning when the host is already busy.
func header(w io.Writer, o options) hostState {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		commit += dirty
	}
	fmt.Fprintf(w, "dtmperf commit=%s %s nproc=%d GOMAXPROCS=%d seed=%d reps=%d seconds=%d trace=%d\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), o.seed, o.reps, o.seconds, o.trace)
	h := readHost()
	if h.ok {
		fmt.Fprintf(w, "load average (1 min) at start: %.2f\n", h.load)
		if h.load > 0.5*float64(runtime.NumCPU()) {
			fmt.Fprintf(w, "WARNING: load %.2f > 0.5 x %d cpus: the host is busy, timings lean on the calibration kernel (host_speed); only alloc_mb and the counters are exact\n", h.load, runtime.NumCPU())
		}
	}
	return h
}

// footer prints the load at the end (it includes the benchmark's own threads)
// and the share of CPU time the hypervisor gave to other guests meanwhile.
func footer(w io.Writer, start hostState) {
	end := readHost()
	if start.ok && end.ok && end.ticks > start.ticks {
		fmt.Fprintf(w, "load average (1 min) at end: %.2f; cpu stolen by other guests during the run: %.1f%%\n",
			end.load, 100*(end.stolen-start.stolen)/(end.ticks-start.ticks))
	}
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// pinFile is pins.json: the exact DES work counters of seeds 1 and 2. They
// are floating-point-path dependent, so they bind only on the architecture
// they were recorded on.
type pinFile struct {
	GOARCH string                                   `json:"goarch"`
	Seeds  map[string]map[string]map[string]float64 `json:"seeds"`
}

//go:embed pins.json
var pinsJSON []byte

// pinned returns the pinned counters of (seed, problem), nil when unpinned.
func pinned(seed int64, problem string) map[string]float64 {
	var pf pinFile
	if err := json.Unmarshal(pinsJSON, &pf); err != nil || pf.GOARCH != runtime.GOARCH {
		return nil
	}
	return pf.Seeds[strconv.FormatInt(seed, 10)][problem]
}

// mergePins rewrites the pins of one seed in the file at path.
func mergePins(path string, seed int64, pins map[string]map[string]float64) error {
	pf := pinFile{Seeds: map[string]map[string]map[string]float64{}}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &pf); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	pf.GOARCH = runtime.GOARCH
	pf.Seeds[strconv.FormatInt(seed, 10)] = pins
	return writeJSON(path, pf)
}
