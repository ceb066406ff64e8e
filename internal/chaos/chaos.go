// Package chaos is the deterministic, seeded fault-injection layer of the DTM
// engines. The paper's headline claim — convergence with no global barrier
// under arbitrary communication delays — is only interesting when the channels
// actually misbehave, so this package models the degraded-channel reality of
// the wireless/spanner fabrics the related work targets: message drops,
// duplication, reordering within a jitter bound, burst link-down windows and
// whole-subdomain crash-restart.
//
// A Spec is an immutable description of the faults to inject (usually parsed
// from the CLI's -faults string). A Controller is the runtime state: one
// deterministic RNG stream per directed part pair, advanced only by sends on
// that pair, so the fate of the k-th send on a link depends on (seed, from,
// to, k) and nothing else. Two runs with the same seed therefore inject
// byte-identical faults regardless of GOMAXPROCS or the interleaving of other
// links — the property that keeps the DES engine's determinism contract intact
// under fault injection.
//
// The recovery machinery the faults exercise (sequence-numbered last-writer-
// wins dedup, per-twin-link retransmission watchdogs, snapshot-based
// crash-restart, fault-aware convergence gating) lives in internal/core; this
// package only decides what happens to each message and when links and parts
// are down.
package chaos

import "fmt"

// Spec is the immutable, validated description of the faults to inject on a
// run. The zero value injects nothing. Times are in the virtual time unit of
// the topology (transport.NewFaultClock maps them to wall clock through its
// scale).
type Spec struct {
	// Seed selects the deterministic fault streams; runs with equal seeds and
	// equal specs inject identical faults.
	Seed int64
	// Drop is the probability that a send attempt is lost (per copy, i.i.d.
	// on the per-link stream). Must be in [0, 1).
	Drop float64
	// Dup is the probability that a delivered message is delivered twice
	// (the duplicate gets its own jitter). Must be in [0, 1).
	Dup float64
	// Jitter delays each delivered copy by an extra uniform fraction of the
	// link's nominal delay, in [0, Jitter·delay]. Values above the link
	// asymmetry reorder messages. Must be >= 0.
	Jitter float64
	// Down lists the link-down and burst-delay windows: a send whose virtual
	// send time falls inside a window on its pair is lost (hard down,
	// SlowBy <= 1) or delivered SlowBy× slower (degraded/burst, SlowBy > 1).
	Down []Window
	// Crashes lists the subdomain crash-restart events.
	Crashes []Crash
	// WatchdogMult scales the per-twin-link retransmission timeout: the
	// initial timeout is WatchdogMult × the link's nominal delay, doubling on
	// every silent expiry up to MaxBackoff doublings. Zero selects the default
	// (4).
	WatchdogMult float64
	// SnapshotEvery is the virtual time between periodic in-memory snapshots
	// of each subdomain's recovery state (only taken when Crashes is
	// non-empty). Zero selects the default (50 time units).
	SnapshotEvery float64
}

// Window is one link-down (or degraded) window on a directed part pair.
type Window struct {
	// From, To name the directed pair of subdomains; -1 means every part on
	// that side (so {-1, -1} takes the whole fabric down).
	From, To int
	// T0, T1 bound the window: a send at virtual time t is affected when
	// T0 <= t < T1.
	T0, T1 float64
	// SlowBy, when > 1, degrades the link instead of cutting it: deliveries
	// sent inside the window take SlowBy × the nominal delay (burst delay).
	// SlowBy <= 1 means the link is hard down and the send is lost.
	SlowBy float64
}

// Crash is one scheduled subdomain failure: the part loses its runtime state
// at time At and restarts RestartAfter later from its latest periodic
// snapshot, refactorising its local system through the LocalSolver registry.
type Crash struct {
	Part         int
	At           float64
	RestartAfter float64
}

// Validate checks the ranges the Controller and the engines rely on.
func (s *Spec) Validate() error {
	if s == nil {
		return nil
	}
	if s.Drop < 0 || s.Drop >= 1 {
		return fmt.Errorf("chaos: drop probability must be in [0,1), got %g", s.Drop)
	}
	if s.Dup < 0 || s.Dup >= 1 {
		return fmt.Errorf("chaos: duplication probability must be in [0,1), got %g", s.Dup)
	}
	if s.Jitter < 0 {
		return fmt.Errorf("chaos: jitter fraction must be non-negative, got %g", s.Jitter)
	}
	if s.WatchdogMult < 0 {
		return fmt.Errorf("chaos: watchdog multiplier must be non-negative, got %g", s.WatchdogMult)
	}
	if s.SnapshotEvery < 0 {
		return fmt.Errorf("chaos: snapshot interval must be non-negative, got %g", s.SnapshotEvery)
	}
	for i, w := range s.Down {
		if w.T1 <= w.T0 || w.T0 < 0 {
			return fmt.Errorf("chaos: down window %d has invalid span [%g,%g)", i, w.T0, w.T1)
		}
		if w.From < -1 || w.To < -1 {
			return fmt.Errorf("chaos: down window %d names invalid pair %d>%d", i, w.From, w.To)
		}
	}
	for i, c := range s.Crashes {
		if c.Part < 0 {
			return fmt.Errorf("chaos: crash %d names invalid part %d", i, c.Part)
		}
		if c.At <= 0 || c.RestartAfter <= 0 {
			return fmt.Errorf("chaos: crash %d has invalid schedule at=%g restart=+%g (crash time and restart delay must be positive)", i, c.At, c.RestartAfter)
		}
	}
	return nil
}

// CheckParts refuses a spec that names a part a run over n parts does not
// have: such a crash would never fire, and such a window would act on no link
// while the engines' stopping rules wait it out.
func (s *Spec) CheckParts(n int) error {
	if s == nil {
		return nil
	}
	for _, c := range s.Crashes {
		if c.Part >= n {
			return fmt.Errorf("chaos: fault spec crashes part %d but the partition has only %d parts", c.Part, n)
		}
	}
	for _, w := range s.Down {
		if w.From >= n || w.To >= n {
			return fmt.Errorf("chaos: fault spec window %d>%d references a part outside the %d-part partition", w.From, w.To, n)
		}
	}
	return nil
}

// Enabled reports whether the spec injects any fault at all. A nil or
// zero-value spec leaves the engines on their fault-free fast paths.
func (s *Spec) Enabled() bool {
	if s == nil {
		return false
	}
	return s.Drop > 0 || s.Dup > 0 || s.Jitter > 0 || len(s.Down) > 0 || len(s.Crashes) > 0
}

// WatchdogTimeout returns the initial retransmission timeout for a link with
// the given nominal delay.
func (s *Spec) WatchdogTimeout(delay float64) float64 {
	m := s.WatchdogMult
	if m == 0 {
		m = 4
	}
	return m * delay
}

// MaxBackoff caps the watchdog's exponential backoff: a retransmission
// timeout never exceeds its initial value × 2^MaxBackoff.
const MaxBackoff = 6

// SnapshotInterval returns the periodic snapshot interval.
func (s *Spec) SnapshotInterval() float64 {
	if s.SnapshotEvery == 0 {
		return 50
	}
	return s.SnapshotEvery
}

// AnyDownAt reports whether any down (or degraded) window is open at time t —
// the engines refuse to declare convergence inside one.
func (s *Spec) AnyDownAt(t float64) bool {
	if s == nil {
		return false
	}
	for _, w := range s.Down {
		if t >= w.T0 && t < w.T1 {
			return true
		}
	}
	return false
}

// CrashedAt reports whether the given part is down (crashed, not yet
// restarted) at time t.
func (s *Spec) CrashedAt(part int, t float64) bool {
	if s == nil {
		return false
	}
	for _, c := range s.Crashes {
		if c.Part == part && t >= c.At && t < c.At+c.RestartAfter {
			return true
		}
	}
	return false
}

// AnyCrashedAt reports whether any part is down at time t.
func (s *Spec) AnyCrashedAt(t float64) bool {
	if s == nil {
		return false
	}
	for _, c := range s.Crashes {
		if t >= c.At && t < c.At+c.RestartAfter {
			return true
		}
	}
	return false
}

// Stats counts the faults a Controller actually injected.
type Stats struct {
	// Dropped counts sends lost to the drop probability or a hard-down window.
	Dropped int64
	// Duplicated counts extra deliveries injected by the duplication
	// probability.
	Duplicated int64
	// Delayed counts deliveries slowed by a degraded (burst) window.
	Delayed int64
}

// pairState is the deterministic fault stream of one directed part pair. Only
// the sending side advances it (a single goroutine in the DES engine; a
// transport.FaultClock serialises a fleet's members), so it needs no lock.
type pairState struct {
	rng   splitMix64
	fates []float64 // reusable fate buffer handed to the engine per send
}

// Controller applies a Spec to the message flow of one run. It is created
// per run (its pair streams and counters are mutable run state) and used by
// one goroutine at a time.
type Controller struct {
	spec   *Spec
	nParts int
	pairs  []pairState
	stats  Stats
}

// NewController returns the runtime fault state for a run over nParts
// subdomains.
func NewController(spec *Spec, nParts int) *Controller {
	c := &Controller{spec: spec, nParts: nParts, pairs: make([]pairState, nParts*nParts)}
	for i := range c.pairs {
		from, to := i/nParts, i%nParts
		c.pairs[i].rng = newSplitMix64(mix3(uint64(spec.Seed), uint64(from)+1, uint64(to)+1))
	}
	return c
}

// Fate decides what happens to one send on the directed pair from→to at
// virtual time now with nominal delay d: it returns the delivery delay of
// every copy to schedule. An empty result means the message is lost. The
// returned slice is a per-pair scratch buffer, valid until the next Fate call
// on the same pair — both engines consume it immediately.
//
// Each pair's decisions come from its own RNG stream, advanced by a fixed
// number of draws per call, so the k-th send on a pair always meets the same
// fate for a given seed, independent of every other pair.
func (c *Controller) Fate(from, to int, now, d float64) []float64 {
	ps := &c.pairs[from*c.nParts+to]
	// Fixed draw schedule: one draw each for drop, duplication and the two
	// jitters, consumed unconditionally so the stream position depends only on
	// the send count, never on earlier outcomes.
	uDrop := ps.rng.float64()
	uDup := ps.rng.float64()
	uJit1 := ps.rng.float64()
	uJit2 := ps.rng.float64()

	ps.fates = ps.fates[:0]
	s := c.spec
	// Scheduled windows first: a hard-down window loses the send outright, a
	// degraded window stretches the delay.
	slow := 1.0
	for _, w := range s.Down {
		if (w.From != -1 && w.From != from) || (w.To != -1 && w.To != to) || now < w.T0 || now >= w.T1 {
			continue
		}
		if w.SlowBy <= 1 {
			c.stats.Dropped++
			return ps.fates
		}
		if w.SlowBy > slow {
			slow = w.SlowBy
		}
	}
	if slow > 1 {
		c.stats.Delayed++
	}
	if uDrop < s.Drop {
		c.stats.Dropped++
		return ps.fates
	}
	ps.fates = append(ps.fates, d*slow*(1+s.Jitter*uJit1))
	if uDup < s.Dup {
		c.stats.Duplicated++
		ps.fates = append(ps.fates, d*slow*(1+s.Jitter*uJit2))
	}
	return ps.fates
}

// Stats returns the counters accumulated so far.
func (c *Controller) Stats() Stats { return c.stats }

// splitMix64 is the SplitMix64 generator: tiny, splittable-by-seeding and
// plenty for fault decisions. Deliberately not math/rand: the stream must be
// stable across Go releases for the byte-identical determinism contract.
type splitMix64 struct{ state uint64 }

func newSplitMix64(seed uint64) splitMix64 { return splitMix64{state: seed} }

func (s *splitMix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0, 1).
func (s *splitMix64) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// mix3 combines the seed and the pair into one stream seed, avalanching so
// that adjacent pairs get uncorrelated streams.
func mix3(a, b, c uint64) uint64 {
	h := a*0x9e3779b97f4a7c15 ^ b*0xc2b2ae3d27d4eb4f ^ c*0x165667b19e3779f9
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
