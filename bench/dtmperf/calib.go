package main

import (
	"math/rand"
	"slices"
	"time"
)

// The calibration kernel is a fixed piece of work that belongs to the
// benchmark, not to the solver: sort 2^17 pseudo-random floats (branches,
// 1 MB moving through the caches), then a dependent multiply-add chain over
// them. It runs before and after every rep, and the rep's timings are divided
// by how slow the two kernels around it ran: on the shared host this was sized
// on, identical solves take 10 to 30 % longer for minutes at a time when the
// neighbours are busy, all problems together and the kernel with them, while
// solve ÷ kernel stays within a few per cent (README, "Host noise").
var (
	calibSrc = func() []float64 {
		rng := rand.New(rand.NewSource(1))
		a := make([]float64, 1<<17)
		for i := range a {
			a[i] = rng.Float64()
		}
		return a
	}()
	calibBuf  = make([]float64, len(calibSrc))
	calibSink float64
)

// calibNominal is what one calibration kernel takes, wall and CPU, on a quiet
// host of the class the benchmark was sized on (2.1 GHz Xeon guest, go1.24).
// It only fixes the unit: a reported second is 1/calibNominal kernels long.
const calibNominal = 0.018

// hostSpeed is one timing of the calibration kernel.
type hostSpeed struct{ wall, cpu float64 }

// calibrate runs the kernel once. It allocates nothing.
func calibrate() hostSpeed {
	cpu0, t := cpuSeconds(), time.Now()
	copy(calibBuf, calibSrc)
	slices.Sort(calibBuf)
	s := 0.0
	for r := 0; r < 24; r++ {
		for _, v := range calibBuf {
			s = s*0.999 + v
		}
	}
	calibSink = s
	return hostSpeed{time.Since(t).Seconds(), cpuSeconds() - cpu0}
}

// atNominalSpeed converts the timings of a rep to what a host of nominal
// speed would have shown, given the calibration timings just before and just
// after it: wall times shrink by nominal ÷ mean kernel wall time and rates
// grow by it; cpu_s, which does not see the time the process was off the
// core, goes by the kernels' CPU time. Counts and sizes stay. The factor
// itself is recorded as host_speed.
func (s sample) atNominalSpeed(before, after hostSpeed) {
	if s.err != nil {
		return
	}
	wall := 2 * calibNominal / (before.wall + after.wall)
	cpu := 2 * calibNominal / (before.cpu + after.cpu)
	for name, v := range s.metrics {
		switch {
		case name == "cpu_s":
			s.metrics[name] = v * cpu
		case units[name] == "s" || units[name] == "us":
			s.metrics[name] = v * wall
		case units[name] == "1/s":
			s.metrics[name] = v / wall
		}
	}
	s.metrics["host_speed"] = wall
}
