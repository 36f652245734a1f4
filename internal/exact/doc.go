// Package exact provides three independent exact solvers for the
// tree-to-host-satellites assignment problem, used as ground truth for the
// paper's graph-based algorithm and as the baselines of experiments E9/E10:
//
//   - BruteForce enumerates every feasible assignment (exponential; small
//     instances only);
//   - Pareto solves by dynamic programming over per-region Pareto frontiers
//     of (host-time, satellite-load) pairs — polynomial for bounded
//     frontier sizes and fully independent of the dual-graph machinery;
//   - BranchAndBound prunes the brute-force tree with delay lower bounds —
//     one of the two heuristic directions the paper's §6 names for future
//     work (here made exact because the objective admits a monotone bound).
//
// The branch-and-bound prunings are: the bound — committed host time, plus
// the host time of undecided must-host CRUs, plus the largest over
// satellites s of (s's committed load + the per-satellite floors of the
// undecided subtrees), where a subtree's floor on s is the least host
// time plus load on s it can add (its sensors' uplinks; for a sinkable
// monochromatic subtree, its exact standalone optimum); seeding the
// incumbent with all-host, maximal distribution and an optional warm
// hint; cheaper-branch-first ordering; and, with a bound cache, memoized
// standalone subtree bounds and whole-instance replays. The delay
// H + max_s L_s is at least H + L_s for each s, and H + L_s is additive
// over independent subtrees, which is why the floors may be summed.
//
// BranchAndBound has one depth-first search and a width. At width 1
// (the branch-and-bound wire name) it runs on the caller's goroutine and
// touches no atomic, mutex or deque. Above width 1 (parallel-bnb, width
// from the request's parallelism hint) the same search is split across
// work-stealing workers: a partial search state — location vector,
// decision stack, satellite load table — is a self-contained, stealable
// frame. Each worker runs the depth-first search over its current
// frame, forking the second branch of a decision onto its own deque
// whenever the deque runs dry; idle workers steal the oldest
// (largest-subtree) frame from a victim, so N workers explore disjoint
// subtrees of the same decision tree.
//
// Exactness under concurrency comes from the incumbent protocol: the
// best known delay lives in one atomic word (IEEE-754 bits, tightened by
// compare-and-swap), so the instant any worker improves it every other
// worker's bound test — re-read at every search node — prunes against
// the new value. Storing the winning assignment and streaming it to
// Options.OnIncumbent happen under one mutex, after the CAS, so the
// stream stays strictly improving. Pruning only ever removes provably
// non-improving branches, so the completed search returns the same
// optimal delay at every width, which TestParallelBnBExact pins across
// ~200 random solves and the -race tier hammers for memory-model races.
package exact
