package exact

import (
	"context"
	"runtime"

	"repro/internal/core"
	"repro/internal/model"
)

// The three independent exact solvers register themselves with the core
// registry — branch-and-bound under two wire names, width 1 and
// work-stealing; importing this package (directly or via
// repro/internal/algorithms) makes them dispatchable by name.
func init() {
	core.Register(core.ParetoDP, core.Capabilities{
		Exact:   true,
		Budget:  true,
		Summary: "exact per-region Pareto dynamic programming (frontier budget)",
	}, exactSolver(ParetoContext))
	core.Register(core.BruteForce, core.Capabilities{
		Exact:   true,
		Budget:  true,
		Summary: "exhaustive enumeration of feasible assignments (node budget)",
	}, exactSolver(BruteForceContext))
	core.Register(core.BranchBound, core.Capabilities{
		Exact:     true,
		Budget:    true,
		WarmStart: true,
		Anytime:   true,
		Bounds:    true,
		Summary:   "branch-and-bound over the cut decision tree (node budget, bound memoization)",
	}, bnbSolver(func(core.Request) int { return 1 }))
	core.Register(core.ParallelBnB, core.Capabilities{
		Exact:     true,
		Budget:    true,
		WarmStart: true,
		Anytime:   true,
		Parallel:  true,
		Bounds:    true,
		Summary:   "work-stealing parallel branch-and-bound (node budget, Request.Parallelism workers, bound memoization)",
	}, bnbSolver(func(req core.Request) int {
		if req.Parallelism <= 0 {
			return runtime.GOMAXPROCS(0)
		}
		return req.Parallelism
	}))
}

// bnbSolver adapts BranchAndBound to the registry at the search width
// the request asks for.
func bnbSolver(width func(core.Request) int) core.SolveFunc {
	return func(ctx context.Context, req core.Request) (core.Finding, error) {
		res, err := BranchAndBound(ctx, req.Tree, Options{
			Workers:     width(req),
			MaxNodes:    req.Budget,
			Warm:        req.Warm,
			OnIncumbent: req.OnIncumbent,
			BestEffort:  req.BestEffort,
			Bounds:      req.Bounds,
		})
		if err != nil {
			return core.Finding{}, err
		}
		return core.Finding{
			Assignment:  res.Assignment,
			Work:        res.Explored,
			Partial:     res.Partial,
			LowerBound:  res.LowerBound,
			Pruned:      res.Pruned,
			BoundHits:   res.BoundHits,
			BoundMisses: res.BoundMisses,
		}, nil
	}
}

// exactSolver adapts one of the exact entry points to the registry's
// SolveFunc shape; Request.Budget maps onto the solver's exploration cap.
func exactSolver(solve func(context.Context, *model.Tree, int) (*Result, error)) core.SolveFunc {
	return func(ctx context.Context, req core.Request) (core.Finding, error) {
		res, err := solve(ctx, req.Tree, req.Budget)
		if err != nil {
			return core.Finding{}, err
		}
		return core.Finding{Assignment: res.Assignment, Work: res.Explored}, nil
	}
}
