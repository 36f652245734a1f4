package bench

import (
	"context"
	"fmt"
	"testing"

	"repro"
	"repro/internal/assign"
	"repro/internal/eval"
	"repro/internal/exact"
	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/workload"
)

// P1CompiledVsPointer measures the compiled flat-tree hot paths against
// the pointer-based reference implementations retained for the parity
// tests, on the paper tree: flat delay evaluation, the hill climber,
// branch-and-bound, adapted-SSB graph build+solve, and the warm
// Service.Solve cache-hit path. The allocs/op and bytes/op columns are
// the memory-discipline contract — the compiled rows must stay at 0 for
// the evaluation kernel and the warm serve path.
func P1CompiledVsPointer() (*Table, error) {
	tree := workload.PaperTree()
	c := model.Compile(tree)
	asg := heuristics.MaxDistribution(tree).Assignment
	loc := make([]model.Location, c.Len())
	c.LoadLocations(loc, asg)
	ctx := context.Background()

	svc := repro.NewService(nil, 64)
	if _, _, err := svc.Solve(ctx, tree); err != nil {
		return nil, err
	}

	type variant struct {
		path, impl string
		fn         func(b *testing.B)
	}
	variants := []variant{
		{"eval", "pointer", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				eval.PointerDelay(tree, asg)
			}
		}},
		{"eval", "compiled", func(b *testing.B) {
			b.ReportAllocs()
			fr := eval.GetFrame()
			defer eval.PutFrame(fr)
			for i := 0; i < b.N; i++ {
				eval.FlatDelay(c, loc, fr)
			}
		}},
		{"greedy-host", "pointer", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				heuristics.GreedyPointer(tree, heuristics.FromHost)
			}
		}},
		{"greedy-host", "compiled", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				heuristics.Greedy(tree, heuristics.FromHost)
			}
		}},
		{"branch-and-bound", "pointer", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exact.BranchAndBoundPointer(ctx, tree, 0, nil); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"branch-and-bound", "compiled", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := exact.BranchAndBound(ctx, tree, exact.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"adapted-ssb", "pointer", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := assign.BuildPointer(tree).SolveAdapted(assign.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"adapted-ssb", "compiled", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := assign.Build(tree).SolveAdapted(assign.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"serve-warm", "compiled", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := svc.Solve(ctx, tree); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}

	tbl := &Table{
		ID:      "P1",
		Title:   "compiled flat-tree plans vs pointer walks (paper tree)",
		Paper:   "engineering extension: ISSUE 4 relayering, not a paper artefact",
		Columns: []string{"path", "impl", "ns/op", "allocs/op", "bytes/op"},
	}
	nsByPath := map[string][2]float64{}
	for _, v := range variants {
		r := testing.Benchmark(v.fn)
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		tbl.AddRow(v.path, v.impl, fmt.Sprintf("%.0f", ns), r.AllocsPerOp(), r.AllocedBytesPerOp())
		tbl.AddMetric(v.path+"/"+v.impl+"/ns_op", ns, "ns/op")
		tbl.AddMetric(v.path+"/"+v.impl+"/allocs_op", float64(r.AllocsPerOp()), "allocs/op")
		pair := nsByPath[v.path]
		if v.impl == "pointer" {
			pair[0] = ns
		} else {
			pair[1] = ns
		}
		nsByPath[v.path] = pair
	}
	for _, v := range []string{"eval", "greedy-host", "branch-and-bound", "adapted-ssb"} {
		pair := nsByPath[v]
		if pair[0] > 0 && pair[1] > 0 {
			tbl.Notes = append(tbl.Notes, fmt.Sprintf("%s: compiled is %.1fx the pointer path", v, pair[0]/pair[1]))
		}
	}
	return tbl, nil
}
