package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dist"
)

// TestBuildSpec pins the flags → spec mapping: -source is carried as given;
// -parts rides along with -px/-py and decides the part count when set.
func TestBuildSpec(t *testing.T) {
	for _, tc := range []struct {
		name  string
		o     options
		want  dist.SpecV2
		parts int
	}{
		{
			name:  "the default source",
			o:     options{source: "grid:rows=17,cols=17,seed=3", px: 2, py: 2, topo: "uniform", delay: 10},
			want:  dist.SpecV2{V: 2, Source: "grid:rows=17,cols=17,seed=3", PartsX: 2, PartsY: 2, Topology: "uniform", Delay: 10},
			parts: 4,
		},
		{
			name:  "a grid torn px by py on a ring",
			o:     options{source: "grid:rows=33,cols=33,seed=1089", px: 2, py: 4, topo: "ring", delay: 5},
			want:  dist.SpecV2{V: 2, Source: "grid:rows=33,cols=33,seed=1089", PartsX: 2, PartsY: 4, Topology: "ring", Delay: 5},
			parts: 8,
		},
		{
			name:  "irregular source torn by -parts",
			o:     options{source: "spanner:n=100,k=6,seed=7,leak=0.05", parts: 6, px: 2, py: 2, topo: "yao:k=6"},
			want:  dist.SpecV2{V: 2, Source: "spanner:n=100,k=6,seed=7,leak=0.05", NParts: 6, PartsX: 2, PartsY: 2, Topology: "yao:k=6"},
			parts: 6,
		},
		{
			name:  "-parts on a grid source selects the general tearing",
			o:     options{source: "grid:rows=9,cols=12,seed=-4", parts: 3, px: 2, py: 2},
			want:  dist.SpecV2{V: 2, Source: "grid:rows=9,cols=12,seed=-4", NParts: 3, PartsX: 2, PartsY: 2},
			parts: 3,
		},
	} {
		got := buildSpec(&tc.o)
		if got != tc.want {
			t.Errorf("%s: buildSpec = %+v, want %+v", tc.name, got, tc.want)
		}
		if got.Parts() != tc.parts {
			t.Errorf("%s: spec tears into %d parts, want %d", tc.name, got.Parts(), tc.parts)
		}
		if canon, err := got.SourceString(); err != nil || canon != got.Source {
			t.Errorf("%s: source %q is not canonical (canonical form %q, err %v)", tc.name, got.Source, canon, err)
		}
	}
}

// TestCadenceFlagsHaveAFloor: a cadence the coordinator would replace by its
// default (dist.CoordConfig reads a non-positive interval as unset) is an
// error naming the flag and its floor, before any socket is opened — not a
// run at a cadence nobody asked for.
func TestCadenceFlagsHaveAFloor(t *testing.T) {
	defaults := options{heartbeat: 25 * time.Millisecond, pollMS: 10, watchdogMS: 50, leaseBeats: 6}
	for _, tc := range []struct {
		name string
		set  func(*options)
		want string // substrings of the error; empty when the value is accepted
	}{
		{"the defaults", func(*options) {}, ""},
		{"one millisecond", func(o *options) { o.heartbeat = time.Millisecond }, ""},
		{"a fraction above a millisecond", func(o *options) { o.heartbeat = 1500 * time.Microsecond }, ""},
		{"-heartbeat 500us", func(o *options) { o.heartbeat = 500 * time.Microsecond }, "-heartbeat 500µs|1ms"},
		{"-heartbeat 0", func(o *options) { o.heartbeat = 0 }, "-heartbeat 0s|1ms"},
		{"-heartbeat -1s", func(o *options) { o.heartbeat = -time.Second }, "-heartbeat -1s|1ms"},
		{"-poll-ms 0", func(o *options) { o.pollMS = 0 }, "-poll-ms 0|floor of 1"},
		{"-watchdog-ms 0", func(o *options) { o.watchdogMS = 0 }, "-watchdog-ms 0|floor of 1"},
		{"-lease 0", func(o *options) { o.leaseBeats = 0 }, "-lease 0|floor of 1"},
		{"-lease -3", func(o *options) { o.leaseBeats = -3 }, "-lease -3|floor of 1"},
	} {
		o := defaults
		tc.set(&o)
		err := checkCadence(&o)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: refused: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, part := range strings.Split(tc.want, "|") {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, part)
			}
		}
		// run refuses it too, whatever the mode, and first.
		o.selftest = true
		if rerr := run(&o); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("%s: run = %v, want %v", tc.name, rerr, err)
		}
	}
}

// TestParsePeers: a well-formed -peers map parses to its members (and formats
// back to itself); a malformed one is refused with an error naming the
// offending entry, never a map that silently keeps one of two addresses.
func TestParsePeers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string // the formatted map, or substrings of the error after "!"
	}{
		{"0=a:1,1=b:2", "0=a:1,1=b:2"},
		{" 1=b:2 , 0=a:1 ", "0=a:1,1=b:2"},
		{"", "!-peers is required"},
		{"0=a:1,1=b:2,1=c:3", `!"1=c:3"|repeats member 1`},
		{"1=", `!"1="|empty address`},
		{"0=a:1,b:2", `!"b:2"|want id=host:port`},
		{"x=a:1", `!"x=a:1"|member id`},
		{"-1=a:1", `!"-1=a:1"|member id`},
	} {
		addrs, err := parsePeers(tc.in)
		if want, ok := strings.CutPrefix(tc.want, "!"); ok {
			if err == nil {
				t.Errorf("%q: accepted as %v", tc.in, addrs)
				continue
			}
			for _, part := range strings.Split(want, "|") {
				if !strings.Contains(err.Error(), part) {
					t.Errorf("%q: error %q does not mention %q", tc.in, err, part)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: refused: %v", tc.in, err)
		} else if got := formatPeers(addrs); got != tc.want {
			t.Errorf("%q: parsed to %s, want %s", tc.in, got, tc.want)
		}
	}
}
