package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// metricDef names one metric. exact marks a deterministic DES work counter:
// it must repeat between reps of one seed and match the pin of seeds 1 and 2.
type metricDef struct {
	name, unit string
	higher     bool // higher is better (rates); everything else: lower
	exact      bool
	onePart    bool // exists on the one-part problem only
}

// endToEnd are the metrics a user of the solver sees, per lane, in the order
// printed.
var endToEnd = []metricDef{
	{name: "tts_s", unit: "s"},
	{name: "setup_s", unit: "s"},
	{name: "cpu_s", unit: "s"},
	{name: "alloc_mb", unit: "MB"},
	{name: "iterate_s", unit: "s"},
	{name: "virtual_time_to_tol", unit: "ms", exact: true},
	{name: "host_speed", unit: "ratio", higher: true},
}

// perLayer are the single-layer metrics of the traced pass. A metric a
// lane's path never touches reads 0 there.
var perLayer = []metricDef{
	{name: "sparse.source_build_s", unit: "s"},
	{name: "sparse.unknowns", unit: "count", exact: true},
	{name: "sparse.nnz", unit: "count", exact: true},
	{name: "topology.build_s", unit: "s"},
	{name: "graph.from_system_s", unit: "s"},
	{name: "partition.assign_s", unit: "s"},
	{name: "partition.evs_s", unit: "s"},
	{name: "partition.twin_links", unit: "count", exact: true},
	{name: "partition.max_block_dim", unit: "count", exact: true},
	{name: "partition.imbalance", unit: "ratio", exact: true},
	{name: "dtl.assign_s", unit: "s"},
	{name: "factor.build_subdomains_s", unit: "s"},
	{name: "factor.local_solve_us", unit: "us"},
	{name: "factor.nnzl", unit: "count", exact: true, onePart: true},
	{name: "factor.flops", unit: "count", exact: true, onePart: true},
	{name: "factor.bytes", unit: "B", exact: true, onePart: true},
	{name: "core.solve_call_s", unit: "s"},
	{name: "core.solves_to_tol", unit: "count", exact: true},
	{name: "core.messages", unit: "count", exact: true},
	{name: "core.solves_per_s", unit: "1/s", higher: true},
	{name: "core.engine_overhead_s", unit: "s"},
	{name: "core.retransmissions", unit: "count", exact: true},
	{name: "core.dropped", unit: "count", exact: true},
	{name: "core.duplicated", unit: "count", exact: true},
	{name: "netsim.events_per_s", unit: "1/s", higher: true},
	{name: "transport.wave_frames", unit: "count"},
	{name: "transport.wave_entries", unit: "count"},
	{name: "transport.ctrl_frames", unit: "count"},
	{name: "transport.ctrl_bytes", unit: "B"},
	{name: "transport.send_busy_s", unit: "s"},
	{name: "transport.tcp_roundtrip_us", unit: "us"},
	{name: "transport.tcp_frames_per_s", unit: "1/s", higher: true},
	{name: "dist.spec_build_s", unit: "s"},
	{name: "dist.first_poll_s", unit: "s"},
	{name: "dist.tail_s", unit: "s"},
	{name: "dist.polls", unit: "count"},
	{name: "dist.solves", unit: "count"},
	{name: "dist.messages", unit: "count"},
	{name: "dist.ctrl_bytes_per_poll", unit: "B"},
}

// allMetrics is every metric the program knows, end-to-end first.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

// units maps a metric's name to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range allMetrics() {
		m[d.name] = d.unit
	}
	return m
}()

// A BENCHMARK.json workload is one engine solving the gated problems in turn,
// so what the contract's result line carries is named by problem. End to end:
// <problem>.tts_s of every gated problem, then setup_s, cpu_s and alloc_mb,
// each the sum over the gated problems — what one solve of each costs. Per
// layer: every other metric of every gated problem, as <problem>.<metric>.

// contractTotals are the end-to-end metrics reported as sums over the gated
// problems.
var contractTotals = endToEnd[1:4]

// contractEndToEnd is BENCHMARK.json's end_to_end list.
func contractEndToEnd() []metricDef {
	var defs []metricDef
	for _, p := range problems() {
		if p.gated {
			defs = append(defs, metricDef{name: p.name + ".tts_s", unit: "s"})
		}
	}
	return append(defs, contractTotals...)
}

// contractPerLayer is BENCHMARK.json's per_layer list. The three counters only
// the one-part problem has are left out: it is not gated.
func contractPerLayer() []metricDef {
	var defs []metricDef
	for _, p := range problems() {
		for _, d := range allMetrics()[1:] {
			if p.gated && !d.onePart {
				d.name = p.name + "." + d.name
				defs = append(defs, d)
			}
		}
	}
	return defs
}

// bound is the relative worsening of a median the A/A check (and a later
// gain-claiming PR) tolerates for one lane × end-to-end metric: at least three
// times the widest spread between ten runs of identical code seen on the shared host
// this was sized on (README, "Host noise"), and what BENCHMARK.json carries.
// ok is false where the metric carries no bound (iterate_s on the one-part
// problem, virtual time on the dist engine, host_speed).
func bound(metric string, l *lane) (b float64, ok bool) {
	switch metric {
	case "tts_s":
		return 0.20, true
	case "cpu_s":
		return 0.15, true
	case "setup_s":
		return 0.25, true
	case "iterate_s":
		return 0.25, l.p.parts() > 1
	case "alloc_mb":
		return 0.05, true
	case "virtual_time_to_tol":
		return 0, !l.eng.dist
	}
	return 0, false
}

// sample is the outcome of one rep: its metrics, or why it failed. A failed
// rep contributes no timing.
type sample struct {
	err     error
	metrics map[string]float64
}

func failed(err error) sample { return sample{err: err} }

// stat summarises one metric over the successful reps. A metric is reported
// and compared by its median.
type stat struct {
	N                             int
	Median, Min, Max, Q1, Q3, P90 float64
}

// summary is one lane's result.
type summary struct {
	attempted, failed int
	reasons           []string
	stats             map[string]stat
}

// quantile mirrors Python's statistics.quantiles(xs, n=n)[i-1] (the exclusive
// method), which is what the driver's spread check uses for its quartiles,
// except that it never extrapolates beyond the extremes (fewer than nine
// samples have no upper decile of their own: it reads as the maximum).
func quantile(sorted []float64, i, n int) float64 {
	ln := len(sorted)
	if ln == 1 {
		return sorted[0]
	}
	m := ln + 1
	j := min(max(i*m/n, 1), ln-1)
	delta := float64(i*m - j*n)
	q := (sorted[j-1]*(float64(n)-delta) + sorted[j]*delta) / float64(n)
	return min(max(q, sorted[0]), sorted[ln-1])
}

func statOf(xs []float64) stat {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stat{N: len(s), Median: quantile(s, 2, 4), Min: s[0], Max: s[len(s)-1],
		Q1: quantile(s, 1, 4), Q3: quantile(s, 3, 4), P90: quantile(s, 9, 10)}
}

// summarize folds a lane's samples. On the DES engine every exact counter must
// repeat across reps and, for a pinned seed, match its pin; either mismatch
// fails the whole lane, because the reps no longer did the work the timings
// are attributed to.
func summarize(l *lane, samples []sample) summary {
	sum := summary{attempted: len(samples), stats: map[string]stat{}}
	reason := func(r string) {
		for _, have := range sum.reasons {
			if have == r {
				return
			}
		}
		sum.reasons = append(sum.reasons, r)
	}
	values := map[string][]float64{}
	for _, s := range samples {
		if s.err != nil {
			sum.failed++
			reason(s.err.Error())
			continue
		}
		for name, v := range s.metrics {
			values[name] = append(values[name], v)
		}
	}
	for name, xs := range values {
		sum.stats[name] = statOf(xs)
	}
	if !l.eng.dist {
		for _, def := range allMetrics() {
			st, ok := sum.stats[def.name]
			if !def.exact || !ok {
				continue
			}
			if st.Min != st.Max {
				reason(fmt.Sprintf("%s differs between reps", def.name))
				sum.failed = sum.attempted
			}
			if want, pinned := l.pin[def.name]; pinned && st.Median != want {
				reason(fmt.Sprintf("%s = %v, pinned %v", def.name, st.Median, want))
				sum.failed = sum.attempted
			}
		}
	}
	return sum
}

// render prints the named metrics of one lane.
func (s summary) render(b *strings.Builder, l *lane, defs []metricDef) {
	fmt.Fprintf(b, "%s   failed/attempted = %d/%d\n", l.name(), s.failed, s.attempted)
	for _, r := range s.reasons {
		fmt.Fprintf(b, "  FAILED: %s\n", r)
	}
	fmt.Fprintf(b, "  %-28s %-6s %14s %14s %14s %14s %14s %5s\n", "metric", "unit", "median", "min", "q1", "q3", "p90", "n")
	for _, d := range defs {
		st, ok := s.stats[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(b, "  %-28s %-6s %14.6g %14.6g %14.6g %14.6g %14.6g %5d\n", d.name, d.unit, st.Median, st.Min, st.Q1, st.Q3, st.P90, st.N)
	}
}

// relGap is (b-a)/a, or 0 when both are 0.
func relGap(a, b float64) float64 {
	if a == b {
		return 0
	}
	return (b - a) / math.Abs(a)
}
