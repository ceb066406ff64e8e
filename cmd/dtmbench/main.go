// Command dtmbench regenerates the tables and figures of the paper's
// evaluation (and the extra comparisons and ablations listed in DESIGN.md) and
// prints them as plain-text tables.
//
// Usage:
//
//	dtmbench -list
//	dtmbench -exp fig8
//	dtmbench -exp fig12 -quick
//	dtmbench -all -quick
//	dtmbench -benchjson BENCH_dtm.json -quick
//	dtmbench -exp scale-sparse -quick -cpuprofile cpu.pprof -memprofile mem.pprof
//
// The -cpuprofile and -memprofile flags capture pprof profiles of whatever
// the invocation runs — the way to find factorisation hot spots without
// hand-building test binaries (`go tool pprof cpu.pprof`).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/benchjson"
	"repro/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment to run (see -list)")
		all        = flag.Bool("all", false, "run every registered experiment")
		quick      = flag.Bool("quick", false, "use reduced problem sizes")
		list       = flag.Bool("list", false, "list the available experiments")
		benchjson  = flag.String("benchjson", "", "measure the hot-path experiments and write machine-readable results to this JSON file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile of the run to this file")
		timeout    = flag.Duration("timeout", 0, "wall-clock deadline for the whole invocation (0 = none)")
	)
	flag.Parse()

	if *timeout > 0 {
		time.AfterFunc(*timeout, func() {
			fmt.Fprintf(os.Stderr, "dtmbench: %v deadline exceeded\n", *timeout)
			os.Exit(1)
		})
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dtmbench: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dtmbench: starting CPU profile: %v\n", err)
			os.Exit(2)
		}
	}

	code := dispatch(*benchjson, *exp, *quick, *all, *list)

	// Flush the profiles before exiting — the error paths above run before
	// any profiling starts, but experiment failures must still produce a
	// usable profile of the work done so far.
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		if f, err := os.Create(*memprofile); err != nil {
			fmt.Fprintf(os.Stderr, "dtmbench: %v\n", err)
		} else {
			runtime.GC() // materialise the final heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "dtmbench: writing heap profile: %v\n", err)
			}
			f.Close()
		}
	}
	if code != 0 {
		os.Exit(code)
	}
}

// dispatch runs the selected mode and returns the process exit code.
func dispatch(benchPath, exp string, quick, all, list bool) int {
	registry := experiments.Registry()
	switch {
	case benchPath != "":
		if err := writeBenchJSON(registry, benchPath, quick); err != nil {
			fmt.Fprintf(os.Stderr, "dtmbench: %v\n", err)
			return 1
		}
	case list:
		fmt.Println("available experiments:")
		for _, name := range experiments.Names() {
			fmt.Printf("  %s\n", name)
		}
	case all:
		for _, name := range experiments.Names() {
			if err := runOne(registry, name, quick); err != nil {
				fmt.Fprintf(os.Stderr, "dtmbench: %s: %v\n", name, err)
				return 1
			}
		}
	case exp != "":
		if err := runOne(registry, exp, quick); err != nil {
			fmt.Fprintf(os.Stderr, "dtmbench: %v\n", err)
			return 1
		}
	default:
		flag.Usage()
		return 2
	}
	return 0
}

func runOne(registry map[string]experiments.Runner, name string, quick bool) error {
	runner, ok := registry[name]
	if !ok {
		return fmt.Errorf("unknown experiment %q (use -list)", name)
	}
	fmt.Printf("==== %s ====\n", name)
	start := time.Now()
	if err := runner(os.Stdout, quick); err != nil {
		return err
	}
	fmt.Printf("---- %s done in %v ----\n\n", name, time.Since(start).Round(time.Millisecond))
	return nil
}

// benchExperiments are the hot-path figures whose cost is tracked over time.
var benchExperiments = []string{"fig12", "fig14", "compare-async-jacobi", "scale-sparse", "fault-sweep", "solve-throughput", "compare-distributed", "failover-sweep", "spanner-fabric"}

// writeBenchJSON measures each hot-path experiment and writes the shared
// benchjson schema the cmd/benchdiff regression gate consumes.
func writeBenchJSON(registry map[string]experiments.Runner, path string, quick bool) error {
	out := benchjson.File{Generated: "dtmbench -benchjson", GoVersion: runtime.Version()}
	for _, name := range benchExperiments {
		runner, ok := registry[name]
		if !ok {
			return fmt.Errorf("experiment %q is not registered", name)
		}
		const iters = 2
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := runner(io.Discard, quick); err != nil {
				return fmt.Errorf("experiment %q: %w", name, err)
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		out.Results = append(out.Results, benchjson.Record{
			Experiment: name,
			Quick:      quick,
			Iterations: iters,
			NsPerOp:    float64(elapsed.Nanoseconds()) / iters,
			BytesPerOp: float64(after.TotalAlloc-before.TotalAlloc) / iters,
			AllocsOp:   float64(after.Mallocs-before.Mallocs) / iters,
		})
		fmt.Printf("%-22s %12.0f ns/op %12.0f B/op %10.0f allocs/op\n",
			name, out.Results[len(out.Results)-1].NsPerOp,
			out.Results[len(out.Results)-1].BytesPerOp,
			out.Results[len(out.Results)-1].AllocsOp)
	}
	if err := out.Write(path); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}
