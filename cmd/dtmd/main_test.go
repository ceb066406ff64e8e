package main

import (
	"testing"

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
