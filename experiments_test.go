// The whole evaluation pipeline as one test: every figure of the paper's
// evaluation (Figs. 8, 9, 11, 12, 13, 14 — there are no numbered tables besides
// the algorithm listing of Table 1, which internal/core implements and tests
// directly) plus the comparison and ablation experiments of DESIGN.md, each at
// its reduced size. Timing them is bench/dtmperf's job (`bash bench/run.sh`).
package repro

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/quick/*.golden from this run's output")

// pureQuick names the experiments whose -quick output is a pure function of
// the code: everything on the deterministic virtual-time engines. The other
// three print wall times (scale-sparse) or run on real goroutines and sockets
// (compare-distributed, failover-sweep).
var pureQuick = map[string]bool{
	"fig8": true, "fig9": true, "fig11": true, "fig12": true, "fig13": true, "fig14": true,
	"compare-vtm": true, "compare-async-jacobi": true,
	"ablation-impedance": true, "ablation-delays": true, "ablation-mixed": true,
	"fault-sweep": true, "spanner-fabric": true,
}

// TestAllExperimentsQuick runs every registered experiment at its reduced size
// on each `go test ./...`, and holds what the pure ones print to the bytes in
// testdata/quick (what `dtmbench -exp <name> -quick` shows between its ====
// and ---- lines). The files are amd64's — other targets may fuse
// multiply-adds and move a last digit; `go test -run AllExperimentsQuick
// -update .` rewrites them.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment pipeline test skipped in -short mode")
	}
	for _, e := range experiments.Registry() {
		t.Run(e.Name, func(t *testing.T) {
			var out bytes.Buffer
			if err := e.Run(&out, true); err != nil {
				t.Fatalf("experiment %q failed: %v", e.Name, err)
			}
			if !pureQuick[e.Name] || runtime.GOARCH != "amd64" {
				return
			}
			golden := filepath.Join("testdata", "quick", e.Name+".golden")
			if *update {
				if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("quick output differs from %s\n--- got ---\n%s--- want ---\n%s", golden, out.Bytes(), want)
			}
		})
	}
}
