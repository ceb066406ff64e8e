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
//	dtmbench -exp scale-sparse -quick -cpuprofile cpu.pprof -memprofile mem.pprof
//
// The -cpuprofile and -memprofile flags capture pprof profiles of whatever
// the invocation runs — the way to find factorisation hot spots without
// hand-building test binaries (`go tool pprof cpu.pprof`).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment to run (see -list)")
		all        = flag.Bool("all", false, "run every registered experiment")
		quick      = flag.Bool("quick", false, "use reduced problem sizes")
		list       = flag.Bool("list", false, "list the available experiments")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile of the run to this file")
		timeout    = flag.Duration("timeout", 0, "wall-clock deadline for the whole invocation (0 = none)")
	)
	flag.Parse()

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

	if *timeout > 0 {
		time.AfterFunc(*timeout, func() {
			fmt.Fprintf(os.Stderr, "dtmbench: %v deadline exceeded\n", *timeout)
			// A hang is the run that most needs its profile: flush it (a
			// no-op when none is open) before the exit discards it.
			pprof.StopCPUProfile()
			os.Exit(1)
		})
	}

	code := dispatch(*exp, *quick, *all, *list)

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
func dispatch(exp string, quick, all, list bool) int {
	switch {
	case list:
		fmt.Println("available experiments:")
		for _, e := range experiments.Registry() {
			fmt.Printf("  %s\n", e.Name)
		}
		return 0
	case !all && exp == "":
		flag.Usage()
		return 2
	}
	ran := false
	for _, e := range experiments.Registry() {
		if !all && e.Name != exp {
			continue
		}
		ran = true
		fmt.Printf("==== %s ====\n", e.Name)
		start := time.Now()
		if err := e.Run(os.Stdout, quick); err != nil {
			fmt.Fprintf(os.Stderr, "dtmbench: %s: %v\n", e.Name, err)
			return 1
		}
		fmt.Printf("---- %s done in %v ----\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "dtmbench: unknown experiment %q (use -list)\n", exp)
		return 1
	}
	return 0
}
