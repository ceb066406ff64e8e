// Command dtmd is the distributed DTM server. Each dtmd process is one
// member of a TCP fabric: worker members own a contiguous group of
// subdomains (factorised once per solve session), and one coordinator member
// tears the problem, assigns the
// shards, drives the asynchronous exchange to quiescence and assembles the
// solution. The wire protocol is the DES engine's wavePacket shape plus the
// sequence-numbered recovery protocol, so dropped packets and broken
// connections cost time, never correctness.
//
// Modes:
//
//	worker (default):
//	    dtmd -self 1 -peers "0=host:9000,1=host:9001,2=host:9002"
//	  listens on its own peer address and serves solve sessions until
//	  shutdown. Each life registers with an incarnation number (-incarnation,
//	  or derived from the wall clock when omitted) so a restarted process
//	  rejoins strictly above its previous life and the zombie fences hold.
//
//	coordinate:
//	    dtmd -coordinate -self 0 -peers "..." -workers 1,2 \
//	         -source "grid:rows=33,cols=33,seed=1" -px 2 -py 2 -tol 1e-9
//	  assigns the spec'd problem across the listed worker members, waits for
//	  quiescence, prints the result, and shuts the workers down (unless
//	  -keep-workers).
//
//	selftest:
//	    dtmd -selftest -nworkers 2 [-drop 0.05] [-crash] [-mm]
//	  spawns real dtmd worker processes on loopback, coordinates a quick
//	  problem against them, and exits 0 iff the distributed solution matches
//	  the in-process DES oracle to 1e-6. With -crash it SIGKILLs the last
//	  worker process mid-solve and additionally requires the coordinator to
//	  fail the dead worker's parts over to the survivors. With -mm it writes
//	  a MatrixMarket file, pins its content hash into an "mm:" source spec —
//	  the coordinator ships nothing; every worker process reads the same file
//	  and verifies the hash — and additionally requires a corrupted hash to
//	  be refused with sparse.ErrHashMismatch. This is the CI distributed
//	  smoke test.
//
// The problem is named by -source, a problem-source string from the sparse
// registry ("grid:rows=33,cols=33,seed=1", "spanner:n=100,k=6,seed=7,leak=0.05",
// "mm:/path/sys.mtx@<fnv64 hash>", …). A grid is torn -px by -py; -parts
// tears any source into that many subdomains with the general level-set +
// EVS pipeline. The machine is named by -topo, a topology-registry string
// ("uniform", "ring", "mesh4x4", "mesh8x8", "torus", "yao:n=4,k=6,seed=1").
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/dist"
	"repro/internal/factor"
	"repro/internal/sparse"
	"repro/internal/topology"
	"repro/internal/transport"
)

type options struct {
	self        int
	peers       string
	coordinate  bool
	selftest    bool
	workers     string
	nworkers    int
	keepWorkers bool
	incarnation uint

	px, py        int
	source        string
	parts         int
	mmtest        bool
	topo          string
	delay         float64
	tol           float64
	fs            factor.Settings // -local-solver fills the backend
	sendThreshold float64
	watchdogMS    int
	pollMS        int
	heartbeat     time.Duration
	leaseBeats    int
	noFailover    bool
	crash         bool
	timeout       time.Duration
	drop          float64
	verbose       bool
	printX        bool
}

func main() {
	var o options
	flag.IntVar(&o.self, "self", 0, "this process's member id")
	flag.StringVar(&o.peers, "peers", "", `fabric address map, "id=host:port,id=host:port,..."`)
	flag.BoolVar(&o.coordinate, "coordinate", false, "run as coordinator instead of worker")
	flag.BoolVar(&o.selftest, "selftest", false, "spawn real worker processes on loopback and verify against the DES oracle")
	flag.StringVar(&o.workers, "workers", "", `coordinator: comma-separated worker member ids (default "all peers but self")`)
	flag.IntVar(&o.nworkers, "nworkers", 2, "selftest: number of worker processes to spawn")
	flag.BoolVar(&o.keepWorkers, "keep-workers", false, "coordinator: leave workers running after the solve")
	flag.UintVar(&o.incarnation, "incarnation", 0, "worker: incarnation number of this life (0 derives one from the wall clock; a restarted worker must use a strictly higher value than its previous life)")
	flag.IntVar(&o.px, "px", 2, "problem spec: parts along x")
	flag.IntVar(&o.py, "py", 2, "problem spec: parts along y")
	flag.StringVar(&o.source, "source", "grid:rows=17,cols=17,seed=3", fmt.Sprintf("problem spec: source string (%v)", sparse.RegisteredSources()))
	flag.IntVar(&o.parts, "parts", 0, "problem spec: tear into this many parts with the general pipeline (0 keeps -px×-py)")
	flag.BoolVar(&o.mmtest, "mm", false, "selftest: run the MatrixMarket-by-hash leg (write a file, solve it distributed, require a corrupted hash to be refused)")
	flag.StringVar(&o.topo, "topo", "uniform", fmt.Sprintf("problem spec: topology string (%v)", topology.RegisteredTopologies()))
	flag.Float64Var(&o.delay, "delay", topology.DefaultDelay, "problem spec: uniform/ring link delay")
	flag.Float64Var(&o.tol, "tol", 1e-9, "quiescence tolerance")
	flag.StringVar(&o.fs.Backend, "local-solver", "", "factor backend for the local solves (empty for default)")
	flag.Float64Var(&o.sendThreshold, "send-threshold", 0, "wave re-announcement suppression threshold (default tol/100)")
	flag.IntVar(&o.watchdogMS, "watchdog-ms", 50, "worker retransmission sweep interval (at least 1)")
	flag.IntVar(&o.pollMS, "poll-ms", 10, "coordinator: fallback status poll interval; a round begins sooner when every worker says it fell silent (at least 1)")
	flag.DurationVar(&o.heartbeat, "heartbeat", 25*time.Millisecond, "worker heartbeat (and snapshot) interval, in whole milliseconds (at least 1ms)")
	flag.IntVar(&o.leaseBeats, "lease", 6, "coordinator: worker lease in heartbeat intervals (at least 1)")
	flag.BoolVar(&o.noFailover, "no-failover", false, "coordinator: surface a lost worker as an error instead of reassigning")
	flag.BoolVar(&o.crash, "crash", false, "selftest: SIGKILL the last worker mid-solve and require failover")
	flag.DurationVar(&o.timeout, "timeout", 2*time.Minute, "coordinator/selftest deadline")
	flag.Float64Var(&o.drop, "drop", 0, "inject this wave-drop probability on this member's sends (testing)")
	flag.BoolVar(&o.verbose, "v", false, "log progress")
	flag.BoolVar(&o.printX, "print-x", false, "coordinator: print the assembled solution vector")
	flag.Parse()

	if err := run(&o); err != nil {
		fmt.Fprintln(os.Stderr, "dtmd:", err)
		os.Exit(1)
	}
}

// checkCadence refuses a cadence dist.CoordConfig would read as unset and
// replace by its default: -heartbeat 500us is zero whole milliseconds, and
// would silently beat every 25 ms.
func checkCadence(o *options) error {
	switch {
	case o.heartbeat < time.Millisecond:
		return fmt.Errorf("-heartbeat %v is below the floor of 1ms", o.heartbeat)
	case o.pollMS < 1:
		return fmt.Errorf("-poll-ms %d is below the floor of 1", o.pollMS)
	case o.watchdogMS < 1:
		return fmt.Errorf("-watchdog-ms %d is below the floor of 1", o.watchdogMS)
	case o.leaseBeats < 1:
		return fmt.Errorf("-lease %d is below the floor of 1", o.leaseBeats)
	}
	return nil
}

func run(o *options) error {
	if err := checkCadence(o); err != nil {
		return err
	}
	if o.selftest {
		return selftest(o)
	}
	addrs, err := parsePeers(o.peers)
	if err != nil {
		return err
	}
	if _, ok := addrs[o.self]; !ok {
		return fmt.Errorf("-peers does not list -self %d", o.self)
	}
	tr, err := transport.NewTCP(o.self, addrs)
	if err != nil {
		return err
	}
	defer tr.Close()
	if o.coordinate {
		return coordinate(o, tr, addrs)
	}
	return worker(o, tr)
}

// worker serves solve sessions until shutdown, SIGINT or SIGTERM.
func worker(o *options, tr transport.Transport) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	wtr := tr
	if o.drop > 0 {
		spec := &chaos.Spec{Drop: o.drop, Seed: int64(1000 + o.self)}
		if err := spec.Validate(); err != nil {
			return err
		}
		wtr = transport.WithFaults(tr, spec, len(tr.Peers())+1)
		defer wtr.Close()
	}
	w := dist.NewWorker(wtr)
	w.Incarnation = workerIncarnation(o.incarnation)
	if o.verbose {
		w.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "dtmd: "+format+"\n", args...)
		}
	}
	fmt.Printf("dtmd: worker %d (inc %d) listening\n", tr.Self(), w.Incarnation)
	return w.Run(ctx)
}

// workerIncarnation resolves the incarnation this worker life registers
// with. The failover protocol requires a restarted dtmd process to carry a
// strictly higher incarnation than its previous life, or its beats are
// fenced as zombie traffic. An explicit -incarnation wins (deployments with
// a supervisor-managed restart counter); otherwise one is derived from the
// wall clock at second granularity, which is monotonic across real process
// restarts. Two restarts within the same second collide and degrade to the
// same-incarnation false-expiry rejoin path — slower, never incorrect.
func workerIncarnation(explicit uint) uint32 {
	if explicit > 0 {
		return uint32(explicit)
	}
	const epoch2025 = 1735689600 // 2025-01-01T00:00:00Z
	s := time.Now().Unix() - epoch2025
	if s < 1 {
		s = 1 // a badly set clock still yields a valid (if static) incarnation
	}
	return uint32(s)
}

// coordinate runs one distributed solve and reports it.
func coordinate(o *options, tr transport.Transport, addrs map[int]string) error {
	ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
	defer cancel()
	workers, err := workerIDs(o, addrs)
	if err != nil {
		return err
	}
	spec := buildSpec(o)
	start := time.Now()
	cfg := coordConfig(o, spec, workers)
	cfg.DisableFailover = o.noFailover
	res, err := dist.Coordinate(ctx, tr, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("source           %s\n", spec.Source)
	fmt.Printf("converged        %v\n", res.Converged)
	fmt.Printf("wall time        %v\n", time.Since(start).Round(time.Millisecond))
	fmt.Printf("workers          %d (parts %d)\n", len(workers), spec.Parts())
	fmt.Printf("solves           %d\n", res.Solves)
	fmt.Printf("messages         %d\n", res.Messages)
	fmt.Printf("polls            %d\n", res.Polls)
	fmt.Printf("max last change  %.3e\n", res.MaxLastChange)
	fmt.Printf("twin gap         %.3e\n", res.TwinGap)
	if res.Failovers > 0 || res.Rejoins > 0 || res.Fenced > 0 {
		fmt.Printf("failovers        %d (rejoins %d, epoch %d, fenced %d)\n",
			res.Failovers, res.Rejoins, res.Epoch, res.Fenced)
	}
	if o.printX {
		for i, v := range res.X {
			fmt.Printf("x[%d] = %.12g\n", i, v)
		}
	}
	if !o.keepWorkers {
		shutdownWorkers(tr, workers)
	}
	if !res.Converged {
		return fmt.Errorf("did not converge within %v", o.timeout)
	}
	return nil
}

// buildSpec assembles the problem spec from the flags.
func buildSpec(o *options) dist.SpecV2 {
	return dist.SpecV2{
		V: 2, Source: o.source,
		PartsX: o.px, PartsY: o.py, NParts: o.parts,
		Topology: o.topo, Delay: o.delay,
	}
}

// coordConfig is the one place the flags become a coordinator configuration.
func coordConfig(o *options, spec dist.SpecV2, workers []int) dist.CoordConfig {
	return dist.CoordConfig{
		Spec: spec, Workers: workers, Tol: o.tol,
		Factor: o.fs, SendThreshold: o.sendThreshold,
		WatchdogMS:   o.watchdogMS,
		PollInterval: time.Duration(o.pollMS) * time.Millisecond,
		HeartbeatMS:  int(o.heartbeat / time.Millisecond),
		LeaseBeats:   o.leaseBeats,
	}
}

func shutdownWorkers(tr transport.Transport, workers []int) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, w := range workers {
		_ = dist.Shutdown(ctx, tr, w)
	}
}

// selftest spawns real dtmd worker processes over loopback TCP, coordinates
// a quick problem against them (optionally with injected wave drop), and
// verifies the assembled solution against the in-process DES oracle. With
// -crash it SIGKILLs the last worker process as soon as the solve is in
// flight and additionally requires at least one failover epoch: the proof
// that a real process death costs time, never correctness.
func selftest(o *options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	n := o.nworkers
	if n < 1 {
		return fmt.Errorf("-nworkers must be >= 1")
	}
	if o.crash && n < 2 {
		return fmt.Errorf("-crash needs -nworkers >= 2 (someone must survive)")
	}
	// Reserve loopback ports: bind, record, release. SO_REUSEADDR makes the
	// immediate rebind by the child reliable on loopback.
	addrs := make(map[int]string, n+1)
	for id := 0; id <= n; id++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs[id] = ln.Addr().String()
		ln.Close()
	}
	peers := formatPeers(addrs)

	ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
	defer cancel()
	var procs []*exec.Cmd
	defer func() {
		for _, c := range procs {
			if c.Process != nil {
				_ = c.Process.Kill()
			}
			_ = c.Wait()
		}
	}()
	for id := 1; id <= n; id++ {
		args := []string{"-self", strconv.Itoa(id), "-peers", peers}
		if o.drop > 0 {
			args = append(args, "-drop", strconv.FormatFloat(o.drop, 'g', -1, 64))
		}
		if o.verbose {
			args = append(args, "-v")
		}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawning worker %d: %w", id, err)
		}
		procs = append(procs, cmd)
	}

	tr, err := transport.NewTCP(0, addrs)
	if err != nil {
		return err
	}
	defer tr.Close()
	workers := make([]int, n)
	for i := range workers {
		workers[i] = i + 1
	}
	spec := buildSpec(o)
	var mmPath string
	var mmHash uint64
	if o.mmtest {
		// MatrixMarket-by-hash leg: write the system to a real file, pin its
		// content hash into the spec, and let every worker process load and
		// verify it independently — the coordinator ships no matrix data.
		mmPath, mmHash, err = writeSelftestMatrix(o)
		if err != nil {
			return err
		}
		defer os.Remove(mmPath)
		spec = dist.SpecV2{
			V: 2, Source: sparse.MMSource{Path: mmPath, Hash: mmHash}.String(),
			NParts: o.parts, Topology: o.topo, Delay: o.delay,
		}
		if spec.NParts == 0 {
			spec.NParts = 2 * n // default tearing: two parts per worker
		}
	}
	cfg := coordConfig(o, spec, workers)
	if o.crash {
		// SIGKILL the last worker once the solve is in flight (after the
		// first status poll round has gone out) — no shutdown handshake, no
		// flushed buffers, exactly what a machine death looks like.
		victim := procs[len(procs)-1]
		var killed bool
		cfg.OnPoll = func(poll int) {
			if poll >= 1 && !killed {
				killed = true
				fmt.Fprintf(os.Stderr, "dtmd: selftest killing worker %d (pid %d)\n", n, victim.Process.Pid)
				_ = victim.Process.Signal(syscall.SIGKILL)
			}
		}
	}
	res, err := dist.Coordinate(ctx, tr, cfg)
	if err != nil {
		return err
	}
	shutdownWorkers(tr, workers)
	if !res.Converged {
		return fmt.Errorf("selftest: distributed run did not converge (polls=%d maxChange=%g gap=%g)",
			res.Polls, res.MaxLastChange, res.TwinGap)
	}
	if o.crash && res.Failovers < 1 {
		return fmt.Errorf("selftest: -crash run finished without a failover (epoch=%d)", res.Epoch)
	}
	oracle, err := spec.Oracle(o.tol, o.fs)
	if err != nil {
		return err
	}
	d := res.X.MaxAbsDiff(oracle.X)
	mode := "clean"
	if o.drop > 0 {
		mode = fmt.Sprintf("drop=%g", o.drop)
	}
	if o.crash {
		mode += "+crash"
	}
	if o.mmtest {
		mode += "+mm"
		// The other half of the hash protocol: a spec whose pinned hash does
		// not match the file content must be refused with the typed error
		// before any work is assigned.
		bad := spec
		bad.Source = sparse.MMSource{Path: mmPath, Hash: mmHash ^ 1}.String()
		_, cerr := dist.Coordinate(ctx, tr, dist.CoordConfig{
			Spec: bad, Workers: workers, Tol: o.tol,
		})
		if !errors.Is(cerr, sparse.ErrHashMismatch) {
			return fmt.Errorf("selftest FAIL (mm): corrupted hash not refused with ErrHashMismatch (got %v)", cerr)
		}
	}
	if !(d <= 1e-6) { // a NaN distance fails too
		return fmt.Errorf("selftest FAIL (%s): distributed X differs from DES oracle by %g (> 1e-6)", mode, d)
	}
	fmt.Printf("selftest PASS (%s): %d worker processes, %d parts, max |x_dist - x_des| = %.3e, %d solves, %d messages, %d failovers (epoch %d)\n",
		mode, n, spec.Parts(), d, res.Solves, res.Messages, res.Failovers, res.Epoch)
	return nil
}

// writeSelftestMatrix writes the -source system's matrix to a temp
// MatrixMarket file and returns its path and FNV-1a 64 content hash — the
// two halves of an "mm:" source spec.
func writeSelftestMatrix(o *options) (string, uint64, error) {
	src, err := sparse.ParseSource(o.source)
	if err != nil {
		return "", 0, err
	}
	sys, _, err := src.Build()
	if err != nil {
		return "", 0, err
	}
	f, err := os.CreateTemp("", "dtmd-selftest-*.mtx")
	if err != nil {
		return "", 0, err
	}
	path := f.Name()
	if err := sparse.WriteMatrixSym(f, sys.A); err != nil {
		f.Close()
		os.Remove(path)
		return "", 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return "", 0, err
	}
	hash, err := sparse.HashFileFNV64(path)
	if err != nil {
		os.Remove(path)
		return "", 0, err
	}
	return path, hash, nil
}

func parsePeers(s string) (map[int]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf(`-peers is required (e.g. "0=host:9000,1=host:9001")`)
	}
	addrs := make(map[int]string)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad -peers entry %q (want id=host:port)", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil || id < 0 {
			return nil, fmt.Errorf("bad member id in -peers entry %q", part)
		}
		if _, dup := addrs[id]; dup {
			return nil, fmt.Errorf("-peers entry %q repeats member %d", part, id)
		}
		if kv[1] == "" {
			return nil, fmt.Errorf("-peers entry %q has an empty address", part)
		}
		addrs[id] = kv[1]
	}
	return addrs, nil
}

func formatPeers(addrs map[int]string) string {
	ids := make([]int, 0, len(addrs))
	for id := range addrs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	parts := make([]string, 0, len(ids))
	for _, id := range ids {
		parts = append(parts, fmt.Sprintf("%d=%s", id, addrs[id]))
	}
	return strings.Join(parts, ",")
}

func workerIDs(o *options, addrs map[int]string) ([]int, error) {
	if strings.TrimSpace(o.workers) == "" {
		var ws []int
		for id := range addrs {
			if id != o.self {
				ws = append(ws, id)
			}
		}
		sort.Ints(ws)
		if len(ws) == 0 {
			return nil, fmt.Errorf("no workers: -peers lists only -self")
		}
		return ws, nil
	}
	var ws []int
	for _, part := range strings.Split(o.workers, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -workers entry %q", part)
		}
		ws = append(ws, id)
	}
	return ws, nil
}
