package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/sparse"
	"repro/internal/topology"
)

// tornOnMesh is the set-up of the paper's Section 7: a grid source regularly
// torn p×p (level-one/level-two mixed EVS), block (bx, by) on processor
// bx + by·p of the p×p mesh of Fig. 11 (p = 4) or Fig. 13 (p = 8).
func tornOnMesh(source string, p int) dist.SpecV2 {
	return dist.SpecV2{V: 2, Source: source, PartsX: p, PartsY: p, Topology: fmt.Sprintf("mesh%dx%d", p, p)}
}

// setup is the ground a list of legs stands on: a torn problem on its
// machine and the oracle its legs are measured against — build's reference
// solution of the system, or, left nil, the first leg's own answer (a
// fault-free baseline).
type setup struct {
	prob  *core.Problem
	exact sparse.Vec
}

// build tears the spec and solves its reference once.
func build(spec dist.SpecV2) (setup, error) {
	prob, err := spec.Build()
	if err != nil {
		return setup{}, err
	}
	exact, err := Reference(prob.System)
	return setup{prob, exact}, err
}

// leg is one run of an experiment.
type leg struct {
	label string
	// topo, when non-nil, is another machine to run on: the setup's system
	// and tearing moved onto it.
	topo *topology.Topology
	// delta, when non-nil, edits the configuration the legs share.
	delta func(*core.Config)
	// bar, when positive, is the agreement the leg declares: it must converge
	// within bar of its oracle in the max norm, or the experiment fails.
	bar float64
}

// agreement is how far a leg's answer is from its oracle, next to the bar
// the leg declared.
type agreement struct {
	label string
	// diff is max |x − oracle| (sparse.Vec.MaxAbsDiff: NaN if any entry is).
	diff, bar float64
}

// holds reports whether a leg that ended with the given convergence flag is
// within its bar. A NaN distance is not.
func (a agreement) holds(converged bool) bool { return converged && a.diff <= a.bar }

// miss is the error a leg that declared a bar and does not hold it fails its
// experiment with.
func (a agreement) miss(converged bool) error {
	if a.bar <= 0 || a.holds(converged) {
		return nil
	}
	return fmt.Errorf("experiments: leg %q disagrees with its oracle: converged=%v, max|dx|=%.3g, bar %g",
		a.label, converged, a.diff, a.bar)
}

// verdict is the last column of every agreement table.
func verdict(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}

// firstMiss returns the miss of the first leg that has one.
func firstMiss[L interface{ miss() error }](legs []L) error {
	for _, l := range legs {
		if err := l.miss(); err != nil {
			return err
		}
	}
	return nil
}

// outcome is what a leg produced: the engine's own result and its agreement,
// next to the configuration it ran under.
type outcome struct {
	agreement
	*core.Result
	cfg core.Config
}

func (o outcome) miss() error { return o.agreement.miss(o.Converged) }

// solve runs cfg on the setup's problem, moved onto topo when one is given.
func (s setup) solve(cfg core.Config, topo *topology.Topology) (*core.Result, error) {
	prob := s.prob
	if topo != nil {
		var err error
		if prob, err = core.NewProblem(prob.System, prob.Partition, topo, nil); err != nil {
			return nil, err
		}
	}
	return core.Solve(context.Background(), prob, cfg)
}

// run solves the legs in order, each under base as edited by its delta, and
// measures every answer against the setup's oracle.
func (s setup) run(base core.Config, legs ...leg) ([]outcome, error) {
	outs, oracle := make([]outcome, 0, len(legs)), s.exact
	for _, l := range legs {
		cfg := base
		if l.delta != nil {
			l.delta(&cfg)
		}
		res, err := s.solve(cfg, l.topo)
		if err != nil {
			return nil, fmt.Errorf("experiments: leg %q: %w", l.label, err)
		}
		if oracle == nil {
			oracle = res.X
		}
		outs = append(outs, outcome{agreement{l.label, res.X.MaxAbsDiff(oracle), l.bar}, res, cfg})
	}
	return outs, nil
}
