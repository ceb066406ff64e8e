package chaos

import (
	"math"
	"testing"
)

func TestControllerDeterministicPerPair(t *testing.T) {
	spec := &Spec{Seed: 7, Drop: 0.2, Dup: 0.1, Jitter: 0.5}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	// Two controllers over the same spec must produce identical fates per
	// pair, regardless of the order other pairs are exercised in.
	a := NewController(spec, 4)
	b := NewController(spec, 4)
	// Advance an unrelated pair on b only: pair streams must be independent.
	for i := 0; i < 100; i++ {
		b.Fate(3, 2, float64(i), 10)
	}
	for k := 0; k < 500; k++ {
		fa := append([]float64(nil), a.Fate(0, 1, float64(k), 10)...)
		fb := append([]float64(nil), b.Fate(0, 1, float64(k), 10)...)
		if len(fa) != len(fb) {
			t.Fatalf("send %d: copy counts differ: %v vs %v", k, fa, fb)
		}
		for i := range fa {
			if fa[i] != fb[i] {
				t.Fatalf("send %d copy %d: delays differ: %g vs %g", k, i, fa[i], fb[i])
			}
		}
	}
}

func TestControllerFateDistribution(t *testing.T) {
	spec := &Spec{Seed: 3, Drop: 0.2, Dup: 0.1, Jitter: 0.5}
	c := NewController(spec, 2)
	const n = 20000
	drops, dups := 0, 0
	for k := 0; k < n; k++ {
		fates := c.Fate(0, 1, float64(k), 10)
		switch len(fates) {
		case 0:
			drops++
		case 2:
			dups++
		case 1:
		default:
			t.Fatalf("send %d: unexpected copy count %d", k, len(fates))
		}
		for _, d := range fates {
			if d < 10 || d > 15 {
				t.Fatalf("send %d: delay %g outside [10, 15] for jitter=0.5", k, d)
			}
		}
	}
	if frac := float64(drops) / n; math.Abs(frac-0.2) > 0.02 {
		t.Errorf("drop fraction %.3f, want ~0.20", frac)
	}
	// Duplication applies only to non-dropped sends: expect ~0.8·0.1.
	if frac := float64(dups) / n; math.Abs(frac-0.08) > 0.02 {
		t.Errorf("dup fraction %.3f, want ~0.08", frac)
	}
	st := c.Stats()
	if int(st.Dropped) != drops || int(st.Duplicated) != dups {
		t.Errorf("stats %+v disagree with observed drops=%d dups=%d", st, drops, dups)
	}
}

func TestDownWindows(t *testing.T) {
	spec := &Spec{
		Seed: 1,
		Down: []Window{
			{From: 0, To: 1, T0: 100, T1: 200},
			{From: -1, To: 3, T0: 50, T1: 60},
			{From: 2, To: 0, T0: 10, T1: 20, SlowBy: 8},
		},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	c := NewController(spec, 4)

	if got := c.Fate(0, 1, 150, 10); len(got) != 0 {
		t.Errorf("send inside a hard-down window must be lost, got %v", got)
	}
	if got := c.Fate(0, 1, 250, 10); len(got) != 1 {
		t.Errorf("send after the window must be delivered, got %v", got)
	}
	if got := c.Fate(2, 3, 55, 10); len(got) != 0 {
		t.Errorf("wildcard-from window must match every sender, got %v", got)
	}
	if got := c.Fate(2, 0, 15, 10); len(got) != 1 || got[0] != 80 {
		t.Errorf("burst window must stretch the delay 8x: got %v, want [80]", got)
	}

	if !spec.AnyDownAt(15) || spec.AnyDownAt(1000) {
		t.Errorf("AnyDownAt wrong")
	}
}

func TestCrashSchedule(t *testing.T) {
	spec := &Spec{Seed: 1, Crashes: []Crash{{Part: 2, At: 100, RestartAfter: 50}}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if !spec.CrashedAt(2, 100) || !spec.CrashedAt(2, 149) {
		t.Errorf("part 2 must be down inside its crash window")
	}
	if spec.CrashedAt(2, 99) || spec.CrashedAt(2, 150) || spec.CrashedAt(1, 120) {
		t.Errorf("crash window must be half-open and part-specific")
	}
	if !spec.AnyCrashedAt(120) || spec.AnyCrashedAt(151) {
		t.Errorf("AnyCrashedAt wrong")
	}
}

func TestSpecValidateRejectsBadValues(t *testing.T) {
	bad := []*Spec{
		{Drop: 1},
		{Drop: -0.1},
		{Dup: 1.5},
		{Jitter: -1},
		{WatchdogMult: -2},
		{SnapshotEvery: -1},
		{Down: []Window{{T0: 10, T1: 10}}},
		{Down: []Window{{From: -2, T0: 0, T1: 1}}},
		{Crashes: []Crash{{Part: -1, At: 0, RestartAfter: 1}}},
		{Crashes: []Crash{{Part: 0, At: 0, RestartAfter: 0}}},
		{Crashes: []Crash{{Part: 0, At: 0, RestartAfter: 1}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d (%+v) must be rejected", i, s)
		}
	}
	var nilSpec *Spec
	if err := nilSpec.Validate(); err != nil {
		t.Errorf("nil spec must validate: %v", err)
	}
	if nilSpec.Enabled() {
		t.Errorf("nil spec must be disabled")
	}
	if (&Spec{Seed: 5}).Enabled() {
		t.Errorf("a spec with only a seed injects nothing and must be disabled")
	}
	if !(&Spec{Drop: 0.01}).Enabled() {
		t.Errorf("a spec with a drop rate must be enabled")
	}
}

func TestWatchdogDefaults(t *testing.T) {
	s := &Spec{}
	if got := s.WatchdogTimeout(10); got != 40 {
		t.Errorf("default watchdog timeout = %g, want 4x delay", got)
	}
	if got := (&Spec{WatchdogMult: 2}).WatchdogTimeout(10); got != 20 {
		t.Errorf("watchdog timeout = %g, want 20", got)
	}
	if got := s.SnapshotInterval(); got != 50 {
		t.Errorf("default snapshot interval = %g, want 50", got)
	}
}
