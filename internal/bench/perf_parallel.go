package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/eval"
	"repro/internal/exact"
	"repro/internal/model"
	"repro/internal/workload"
)

// P4ParallelCores measures the intra-node parallel kernels: the
// branch-and-bound at increasing search widths on one large instance
// (cores-vs-wall-time for a single solve), and the batch delay kernel's
// per-assignment cost as the lane width grows (the amortisation the
// genetic population and annealing pack ride on). Width 1 is the
// sequential search and the speedup baseline; every width is checked
// against the Pareto DP optimum, so the table doubles as an exactness
// probe.
//
// Speedup is only observable when the host exposes >1 core; the
// GOMAXPROCS note records the machine so single-core CI runs are not
// misread as a scaling regression. The explored column separates a
// real speedup from a search-order effect: a wider search that finds a
// strong incumbent early explores fewer nodes, and can beat width 1
// even with fewer cores than workers.
func P4ParallelCores() (*Table, error) {
	rng := rand.New(rand.NewSource(11))
	tree := workload.Random(rng, workload.DefaultRandomSpec(48, 3))
	c := model.Compile(tree)
	ctx := context.Background()

	ref, err := exact.Pareto(tree, 0)
	if err != nil {
		return nil, fmt.Errorf("pareto reference: %w", err)
	}

	tbl := &Table{
		ID:      "P4",
		Title:   "parallel kernels: cores vs wall-time, batch lanes vs eval cost",
		Paper:   "engineering extension: ISSUE 8 parallel search, not a paper artefact",
		Columns: []string{"path", "width", "ns/op", "speedup", "explored"},
	}

	// Branch-and-bound: one large solve at each width.
	widths := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		widths = append(widths, p)
	}
	// The two solvers accumulate rounding residue in different orders,
	// so delays agree to relative precision, not bits.
	tol := 1e-9 * (1 + ref.Delay)
	var solveErr error
	var baseNS float64
	for _, w := range widths {
		explored := 0
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := exact.BranchAndBound(ctx, tree, exact.Options{Workers: w, MaxNodes: 1 << 28})
				if err != nil {
					solveErr = err
					return
				}
				if d := res.Delay - ref.Delay; d > tol || d < -tol {
					solveErr = fmt.Errorf("width %d delay %g != pareto optimum %g", w, res.Delay, ref.Delay)
					return
				}
				explored = res.Explored
			}
		})
		if solveErr != nil {
			return nil, solveErr
		}
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if w == 1 {
			baseNS = ns
		}
		tbl.AddRow("bnb", w, fmt.Sprintf("%.0f", ns), fmt.Sprintf("%.2f", baseNS/ns), explored)
		tbl.AddMetric(fmt.Sprintf("bnb/w%d/ns_op", w), ns, "ns/op")
		tbl.AddMetric(fmt.Sprintf("bnb/w%d/speedup", w), baseNS/ns, "x")
		tbl.AddMetric(fmt.Sprintf("bnb/w%d/explored", w), float64(explored), "nodes")
	}

	// Batch delay kernel: per-assignment cost at increasing lane widths on
	// the same compiled plan. Lane 1 is the amortisation baseline (the
	// plain FlatDelay loop the heuristics used before batching).
	n := c.Len()
	fr := eval.GetFrame()
	base := make([]model.Location, n)
	c.BaseLocations(base)
	oneNS := func() float64 {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eval.FlatDelay(c, base, fr)
			}
		})
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}()
	eval.PutFrame(fr)
	tbl.AddRow("eval-single", 1, fmt.Sprintf("%.0f", oneNS), "1.0", "-")
	tbl.AddMetric("eval/single/ns_op", oneNS, "ns/op")
	for _, lanes := range []int{4, 16, 64} {
		locs := make([][]model.Location, lanes)
		for i := range locs {
			locs[i] = make([]model.Location, n)
			if i%2 == 0 {
				c.BaseLocations(locs[i])
			} else {
				c.TopmostLocations(locs[i])
			}
		}
		out := make([]float64, lanes)
		bf := eval.GetBatchFrame()
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eval.FlatDelayBatch(c, locs, out, bf)
			}
		})
		eval.PutBatchFrame(bf)
		perLane := float64(r.T.Nanoseconds()) / float64(r.N) / float64(lanes)
		tbl.AddRow("eval-batch", lanes, fmt.Sprintf("%.0f", perLane), fmt.Sprintf("%.2f", oneNS/perLane), "-")
		tbl.AddMetric(fmt.Sprintf("eval/lanes%d/ns_op", lanes), perLane, "ns/op per lane")
		tbl.AddMetric(fmt.Sprintf("eval/lanes%d/speedup", lanes), oneNS/perLane, "x")
	}

	tbl.Notes = append(tbl.Notes,
		fmt.Sprintf("GOMAXPROCS=%d; bnb speedup above 1 needs real cores, eval-batch amortisation does not", runtime.GOMAXPROCS(0)),
		fmt.Sprintf("instance: %d tree nodes, %d satellites, optimum delay %s",
			len(tree.Preorder()), len(tree.Satellites()), trimFloat(ref.Delay)),
	)
	return tbl, nil
}
