// Package core implements the Directed Transmission Method (DTM), the
// fully asynchronous, continuous-time, distributed iterative algorithm of
// Wei & Yang (SPAA 2008) for sparse symmetric positive definite linear
// systems, together with its synchronous special case VTM (the Virtual
// Transmission Method) and the convergence-theorem checker.
//
// The pipeline is the one of Fig. 10 in the paper:
//
//  1. the electric graph of A·x = b is partitioned into N subgraphs by
//     Electric Vertex Splitting (package partition);
//  2. a directed transmission line pair (DTLP, package dtl) is inserted
//     between every pair of twin vertices, with a freely chosen positive
//     characteristic impedance;
//  3. each subgraph becomes a Subdomain whose local system (equation (5.9))
//     has a constant coefficient matrix — it is factorised exactly once and
//     re-solved by forward/backward substitution every time fresh remote
//     boundary conditions arrive;
//  4. each subdomain is mapped onto one processor of the target machine
//     (package topology) and every DTL onto a directed communication path,
//     the propagation delay of the line being the communication delay of the
//     path — the algorithm–architecture delay mapping;
//  5. the subdomains run with no synchronisation and no broadcast, only
//     neighbour-to-neighbour messages: here on the deterministic
//     discrete-event simulator (package netsim), and truly concurrently as
//     the core.Shard protocol a dist worker drives.
//
// Theorem 6.1 of the paper guarantees convergence to the exact solution of
// the original system whenever at least one subgraph is SPD and all others
// are symmetric non-negative definite, for any positive impedances and any
// positive, possibly asymmetric, delays; CheckTheorem certifies those
// hypotheses for a concrete partition, deciding each matrix's class exactly
// by whether it factorises by sparse Cholesky once shifted down and once up
// by a small tolerance.
package core
