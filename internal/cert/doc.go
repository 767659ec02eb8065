// Package cert is the optimality-certification harness: it draws random
// small instances from several structurally different generator families,
// certifies the exact claims of the scheduling stack against the
// brute-force oracles of internal/brute, and property-checks the
// metamorphic invariants that keep holding beyond brute range.
//
// # What is certified exactly
//
// On instances small enough to enumerate (a dozen nodes or so), the
// harness requires, with zero tolerance:
//
//   - liu.MinMem's peak equals brute.OptimalPeak (Liu's algorithm is
//     provably optimal, so any gap is an implementation bug in one side);
//   - postorder.MinIO's I/O volume equals the exhaustive minimum over all
//     postorders (Theorem 3) and, on homogeneous trees, the global
//     optimum brute.MinIO (Theorem 4);
//   - the engine's simulated I/O is never below brute.MinIO's optimum (a
//     sub-optimal claim means the simulation itself is broken), its
//     declared accounting is internally consistent, and it reaches the
//     optimum of zero whenever M admits an I/O-free traversal;
//   - FiF dominates the ablation eviction policies on the engine's own
//     schedule (Theorem 1's observable corollary);
//   - executed == simulated: the byte-level executor (internal/oocexec)
//     runs the engine's schedule writing exactly the simulated I/O,
//     reading back all it wrote, never holding more than M units, and
//     delivering every input byte intact.
//
// # What is property-checked
//
// Properties that hold at any scale and need no oracle: simulated I/O
// monotone non-increasing in M, schedule validity under memsim
// re-simulation (memsim.ScoreSchedule), executed == simulated on every
// engine schedule, streamed == materialized results,
// Workers/CacheBudget/checkpoint-resume invariance, and the profile
// cache's CheckInvariants audit after every run.
//
// # Workflow
//
// Go native fuzz targets (FuzzCertifySmall, FuzzCertifyProperties) mine
// the instance space continuously; cmd/certify runs seeded sweeps in CI
// and, on a divergence, Shrink minimizes the failing instance to a
// committable JSON regression file under testdata/cert/ that the package
// tests replay forever after.
package cert
