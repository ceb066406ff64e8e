// The whole evaluation pipeline as one test: every figure of the paper's
// evaluation (Figs. 8, 9, 11, 12, 13, 14 — there are no numbered tables besides
// the algorithm listing of Table 1, which internal/core implements and tests
// directly) plus the comparison and ablation experiments of DESIGN.md, each at
// its reduced size. Timing them is bench/dtmperf's job (`bash bench/run.sh`).
package repro

import (
	"io"
	"testing"

	"repro/internal/experiments"
)

// TestAllExperimentsQuick runs every registered experiment at its reduced size
// on each `go test ./...`.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment pipeline test skipped in -short mode")
	}
	for _, name := range experiments.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			runner := experiments.Registry()[name]
			if runner == nil {
				t.Fatalf("experiment %q is not registered", name)
			}
			if err := runner(io.Discard, true); err != nil {
				t.Fatalf("experiment %q failed: %v", name, err)
			}
		})
	}
}
