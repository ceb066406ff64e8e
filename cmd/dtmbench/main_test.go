package main

import (
	"compress/gzip"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

func TestDispatchExitCodes(t *testing.T) {
	for _, c := range []struct {
		name string
		exp  string
		list bool
		want int
	}{
		{name: "no mode", want: 2},
		{name: "unknown experiment", exp: "nosuch", want: 1},
		{name: "list", list: true, want: 0},
		{name: "fig11", exp: "fig11", want: 0},
	} {
		if got := dispatch(c.exp, true, false, c.list); got != c.want {
			t.Errorf("%s: exit code %d, want %d", c.name, got, c.want)
		}
	}
}

// TestTimeoutFlushesCPUProfile: -timeout leaves through os.Exit, which runs no
// deferred or trailing code, so the deadline path itself has to stop the
// profile. A CPU profile is written when it is stopped: without that the file
// is empty, and the run that hung is the one whose profile was wanted.
func TestTimeoutFlushesCPUProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the command")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "dtmbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	prof := filepath.Join(dir, "cpu.pprof")
	// Every experiment at full size runs for minutes; the deadline always wins.
	err := exec.Command(bin, "-all", "-timeout", "300ms", "-cpuprofile", prof).Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("run past its deadline: err %v, want exit code 1", err)
	}
	f, err := os.Open(prof)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("profile is not a gzip stream: %v", err)
	}
	if n, err := io.Copy(io.Discard, zr); err != nil || n == 0 {
		t.Fatalf("profile truncated: %d bytes decoded, err %v", n, err)
	}
}
