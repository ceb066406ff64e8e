// Package repro is a from-scratch Go reproduction of "Directed Transmission
// Method, a fully asynchronous approach to solve sparse linear systems in
// parallel" (Fei Wei & Huazhong Yang, ACM SPAA 2008).
//
// The library lives under internal/ (see DESIGN.md for the full inventory):
//
//   - internal/sparse, internal/dense, internal/spectral — the numerical
//     substrate (CSR matrices, MatrixMarket I/O, Cholesky/LU/eigen,
//     definiteness certification) plus the problem-source registry: one
//     canonical spec-string grammar (sparse.ParseSource) that is the only
//     way a system is named, by the CLIs' -source flag, the experiments and
//     dist.SpecV2 alike — generated systems ("grid:", "poisson:",
//     "resistor:", "random:", "tridiag:", "saddle:"), random geometric
//     Yao-spanner Laplacians ("spanner:") and content-hash-pinned
//     MatrixMarket files ("mm:<path>@<fnv64>", verified on every build and
//     refused on mismatch with a typed error);
//   - internal/factor — the pluggable local-factorisation subsystem: one
//     LocalSolver interface over the registered backends dense-cholesky,
//     dense-lu, sparse-cholesky (up-looking, with per-block ND/RCM/AMD
//     fill-reducing orderings) and sparse-supernodal (Cholesky or LDLᵀ in
//     blocked trapezoidal panels over the postordered elimination tree,
//     factorised and swept sequentially — the one sparse LDLᵀ),
//     plus the auto policy every subdomain and block solver uses, whose
//     one fallback chain sends a sparse block that is not positive definite
//     to the supernodal LDLᵀ and a block singular under diagonal pivots to
//     dense LU. Solves are built for factor-once/solve-many: every factor
//     answers concurrent SolveTo calls, one right-hand side each, without
//     allocating, and the supernodal factorisation's rank-k updates run
//     through packed kernels (an AVX microkernel on amd64). Backend and
//     ordering travel together as one factor.Settings value — nothing about
//     a factorisation is process-global;
//   - internal/geom — the planar Yao-graph construction (cone picks,
//     symmetrisation, connectivity patching) the "spanner:" source and the
//     "yao:" fabric share;
//   - internal/graph, internal/partition — the electric graph of a symmetric
//     system, a flat read-only adjacency laid over its CSR, and its Electric
//     Vertex Splitting (wire tearing);
//   - internal/dtl, internal/topology, internal/netsim — the impedances of
//     the directed transmission lines, heterogeneous machines (the registry
//     topology.ParseTopology: uniform, ring, torus, the paper's
//     mesh4x4/mesh8x8, and random geometric "yao:" fabrics), and the
//     discrete-event network simulator;
//   - internal/chaos — the deterministic fault-injection model: a parsed
//     fault spec (drop/duplicate/jitter probabilities, link-down and
//     slow-link windows, crash-restart schedules) and the seeded per-link
//     controller that assigns every send a reproducible fate;
//   - internal/core — the DTM solver itself behind the context-first
//     core.Solve(ctx, p, cfg) entry point, whose Config selects the engine:
//     the asynchronous DES engine (default), the synchronous VTM special
//     case and the mixed GALS variant — one virtual-time engine under three
//     schedules of an asynchronous window and a barrier sweep — and the live
//     goroutine engine; and
//     core.Shard, the wave-reliability protocol as a pure state machine
//     (sequence numbers with last-writer-wins dedup, needed/applied marks,
//     watchdog re-announcement, epoch fences, the Quiescent stopping rule)
//     that the live engine and the dist worker both drive, with the DES
//     engine's own fault layer as the reference it is tested against;
//   - internal/transport — the datagram fabric distributed DTM runs on: an
//     in-process channel implementation and a length-prefixed binary TCP
//     implementation with reconnect backoff, under one conformance-tested
//     Transport interface, plus the drop-and-duplicate chaos decorator;
//   - internal/dist — coordinator/worker distributed DTM over a Transport:
//     deterministic re-tearing by every worker from a dist.SpecV2 ({source,
//     tearing shape, topology} registry strings; the coordinator only
//     validates it), sharded subdomain ownership, watchdog
//     retransmission and the distributed stopping rule,
//     plus worker failover: heartbeats carrying wave frontiers and boundary
//     snapshots, jittered coordinator leases, rendezvous-hashed ownership
//     reassignment under fenced epochs (stale-epoch and dead-incarnation
//     packets are dropped and counted), snapshot-seeded adoption by the
//     survivors, and rejoin of restarted workers at a higher incarnation;
//   - internal/iterative — the classical baselines (CG, Jacobi, Gauss–Seidel,
//     SOR, synchronous and asynchronous block-Jacobi);
//   - internal/experiments — one registry of experiments: every figure of the
//     paper's evaluation plus the comparisons and ablations of DESIGN.md,
//     most of them lists of legs on one torn problem.
//
// The executables cmd/dtmsolve, cmd/dtmbench, cmd/dtmgen and cmd/dtmd (the
// distributed DTM server) and the programs under examples/ exercise the same
// packages; experiments_test.go at the module root runs every experiment at
// its reduced size, and the benchmark under bench/ (BENCHMARK.json) times the
// solve layer by layer.
package repro
