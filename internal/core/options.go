package core

import (
	"fmt"
	"math"

	"repro/internal/chaos"
	"repro/internal/dtl"
	"repro/internal/factor"
	"repro/internal/sparse"
)

// Engine selects which execution engine Solve drives. All engines share the
// same numerics — the factorised subdomains of eq. (5.9) exchanging waves —
// and differ only in how the exchanges are scheduled.
type Engine int

const (
	// EngineDES runs the fully asynchronous DTM on the deterministic
	// discrete-event simulator — byte-identical run over run, the engine the
	// paper's figures and every oracle comparison use. The default.
	EngineDES Engine = iota
	// EngineVTM runs the synchronous Virtual Transmission Method: lock-step
	// sweeps with a simultaneous wave exchange after each (eq. (5.10)).
	EngineVTM
	// EngineMixed alternates asynchronous DES windows with globally
	// synchronous sweeps (the "async-sync-async-sync" variant of the paper's
	// conclusions).
	EngineMixed
)

// String returns the engine's short name as used by CLIs and reports.
func (e Engine) String() string {
	switch e {
	case EngineDES:
		return "des"
	case EngineVTM:
		return "vtm"
	case EngineMixed:
		return "mixed"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// CommonOptions is the engine-independent half of a solve Config: the knobs
// every engine interprets the same way, with one normalize.
type CommonOptions struct {
	// Impedance selects the characteristic impedance of every DTLP. nil is
	// the default of Problem.Impedances.
	Impedance dtl.ImpedanceStrategy

	// Factor says how every subdomain factorises its constant local system:
	// the internal/factor backend ("dense-cholesky", "dense-lu",
	// "sparse-cholesky", "sparse-supernodal" or "auto") and the
	// fill-reducing ordering of the sparse backends. The zero value is
	// auto/auto. It is carried by value down to every factorisation, so
	// concurrent Solves with different settings are independent. Results are
	// byte-identical run over run for fixed settings, at every GOMAXPROCS: no
	// backend starts a goroutine.
	Factor factor.Settings

	// Tol, when positive, stops the run early once the computation has
	// quiesced in the distributed sense: every subdomain has solved at least
	// once, the last local solve of every subdomain moved its boundary
	// potentials by at most Tol, the largest twin disagreement (TwinGap) is
	// at most Tol, and — wherever waves can be lost or late (an enabled fault
	// spec) — no announced wave is still unapplied or unsolved-for.
	Tol float64

	// SendThreshold suppresses messages to a neighbour when none of the waves
	// toward it changed by more than this amount since the last send. Zero
	// means every solve broadcasts to all neighbours (the paper's Table 1
	// behaviour); a small positive value lets a converged computation go
	// quiet on its own. Where the stop rule waits for the network to drain
	// (see Tol) a zero threshold defaults to Tol/100 (1e-12 when Tol is
	// zero): re-announcing sub-tolerance changes forever, it never would.
	SendThreshold float64

	// Exact, when non-nil, is the exact solution used for RMS-error traces.
	Exact sparse.Vec

	// StopOnError, when positive and Exact is supplied, stops the run as soon
	// as the RMS error drops to or below this value.
	StopOnError float64

	// RecordTrace enables the convergence-history trace, thinned uniformly
	// to at most 2000 points.
	RecordTrace bool

	// Faults, when non-nil and enabled, injects deterministic channel faults
	// (drops, duplicates, jitter, link-down windows, crash-restart) into the
	// run and arms the recovery clocks: every part, which runs the
	// wave-reliability protocol of a dist worker whatever the spec (a
	// one-part Shard: sequence-numbered waves with last-writer-wins
	// deduplication), gets watchdog retransmission and periodic snapshots of
	// its incoming waves. Runs stay byte-identical per Faults.Seed. A nil or
	// disabled spec leaves every fault-path branch off.
	Faults *chaos.Spec
}

// Config is the complete configuration of a Solve call: the shared
// CommonOptions, the engine selector, and the engine-specific scheduling
// fields (each documented with the engines that read it).
type Config struct {
	CommonOptions

	// Engine selects the execution engine. Default: EngineDES.
	Engine Engine

	// MaxTime is the virtual time horizon (same unit as the topology's
	// delays). Required by the DES and mixed engines.
	MaxTime float64

	// Observer, when non-nil, is invoked by the virtual-time engines (DES,
	// VTM and mixed) after every local solve with its virtual completion time
	// (for the solves of a barrier sweep, the barrier instant — under VTM the
	// number of sweeps before it), the part that solved, and its local
	// solution vector [u_ports; y_inner] (a live buffer — copy it if it must
	// be kept). Experiments use it to record individual port potentials
	// (Fig. 8).
	Observer func(now float64, part int, local sparse.Vec)

	// MaxIterations bounds the number of synchronous sweeps. Required by the
	// VTM engine.
	MaxIterations int

	// AsyncWindow is the length of each asynchronous phase (virtual time),
	// each followed by one synchronous sweep charged the slowest round trip
	// between adjacent subdomains — what a barrier on that machine actually
	// costs. Required by the mixed engine.
	AsyncWindow float64
}

// traceMaxPoints bounds the number of trace points a Result retains.
const traceMaxPoints = 2000

// DrainThreshold is the SendThreshold a run whose stop rule waits for the
// network to drain gets when it sets none — every fault-injected solve and
// every dist session: two orders below the stopping tolerance, so
// suppression can never hold the twin gap above tol, and 1e-12 when tol is
// zero.
func DrainThreshold(tol float64) float64 {
	if t := tol / 100; t > 0 {
		return t
	}
	return 1e-12
}

// normalize fills the defaults every engine shares — the single home of the
// defaulting rules (notably SendThreshold = DrainThreshold(Tol) wherever the
// stop rule waits for the network to drain).
func (c *Config) normalize() {
	if c.Faults.Enabled() && c.SendThreshold == 0 {
		// This stop rule waits for the network to drain (see SendThreshold).
		c.SendThreshold = DrainThreshold(c.Tol)
	}
}

// validate checks the configuration against the problem: the shared fields
// once, then the fields the selected engine requires.
func (c *Config) validate(p *Problem) error {
	if c.Exact != nil && len(c.Exact) != p.System.Dim() {
		return fmt.Errorf("core: Exact has length %d, want %d", len(c.Exact), p.System.Dim())
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"Tol", c.Tol}, {"StopOnError", c.StopOnError}, {"SendThreshold", c.SendThreshold}} {
		if !(f.v >= 0) { // NaN too
			return fmt.Errorf("core: %s must be non-negative, got %g", f.name, f.v)
		}
	}
	if err := c.Factor.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	if err := c.Faults.CheckParts(p.Partition.NumParts()); err != nil {
		return err
	}
	if c.Faults.Enabled() && c.Engine == EngineVTM {
		return fmt.Errorf("core: the VTM engine is a reliable synchronous baseline and does not take a fault spec")
	}
	switch c.Engine {
	case EngineDES:
		if c.MaxTime <= 0 || math.IsNaN(c.MaxTime) {
			return fmt.Errorf("core: MaxTime must be positive for the des engine, got %g", c.MaxTime)
		}
	case EngineVTM:
		if c.MaxIterations <= 0 {
			return fmt.Errorf("core: MaxIterations must be positive for the vtm engine, got %d", c.MaxIterations)
		}
	case EngineMixed:
		if c.MaxTime <= 0 || math.IsNaN(c.MaxTime) {
			return fmt.Errorf("core: MaxTime must be positive for the mixed engine, got %g", c.MaxTime)
		}
		if c.AsyncWindow <= 0 || math.IsNaN(c.AsyncWindow) {
			return fmt.Errorf("core: AsyncWindow must be positive for the mixed engine, got %g", c.AsyncWindow)
		}
	default:
		return fmt.Errorf("core: unknown engine %v", c.Engine)
	}
	return nil
}
