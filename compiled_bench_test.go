package repro_test

// BenchmarkCompiledVsPointer is the acceptance benchmark of the flat-plan
// relayering: every hot path timed through the compiled arrays next to
// the retained pointer-walking reference. Run with
//
//	go test -run='^$' -bench=BenchmarkCompiledVsPointer -benchmem .
//
// and read pointer/compiled pairs; the compiled rows must also hold the
// memory discipline (0 allocs/op for the evaluation kernel and the warm
// serve path). TestWarmServeZeroAlloc guards the latter in CI.

import (
	"context"
	"math/rand"
	"testing"

	"repro"
	"repro/internal/assign"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/exact"
	"repro/internal/heuristics"
	"repro/internal/model"
	"repro/internal/workload"
)

func BenchmarkCompiledVsPointer(b *testing.B) {
	tree := workload.PaperTree()
	c := model.Compile(tree)
	asg := heuristics.MaxDistribution(tree).Assignment
	loc := make([]model.Location, c.Len())
	c.LoadLocations(loc, asg)
	ctx := context.Background()

	b.Run("eval/pointer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eval.PointerDelay(tree, asg)
		}
	})
	b.Run("eval/compiled", func(b *testing.B) {
		b.ReportAllocs()
		fr := eval.GetFrame()
		defer eval.PutFrame(fr)
		for i := 0; i < b.N; i++ {
			eval.FlatDelay(c, loc, fr)
		}
	})

	b.Run("greedy-host/pointer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			heuristics.GreedyPointer(tree, heuristics.FromHost)
		}
	})
	b.Run("greedy-host/compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			heuristics.Greedy(tree, heuristics.FromHost)
		}
	})

	b.Run("anneal/pointer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			heuristics.AnnealPointer(tree, heuristics.AnnealConfig{Seed: 7, Steps: 500})
		}
	})
	b.Run("anneal/compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			heuristics.Anneal(tree, heuristics.AnnealConfig{Seed: 7, Steps: 500})
		}
	})

	b.Run("bnb/pointer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := exact.BranchAndBoundPointer(ctx, tree, 0, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bnb/compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := exact.BranchAndBound(ctx, tree, exact.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("adapted-ssb/pointer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := assign.BuildPointer(tree).SolveAdapted(assign.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("adapted-ssb/compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := assign.Build(tree).SolveAdapted(assign.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompiledServeWarm times the steady-state serving regime the
// relayering targets: a Service answering a cached instance. Read the
// allocs/op column — the contract is 0.
func BenchmarkCompiledServeWarm(b *testing.B) {
	tree := workload.PaperTree()
	svc := repro.NewService(nil, 64)
	ctx := context.Background()
	if _, _, err := svc.Solve(ctx, tree); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := svc.Solve(ctx, tree); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWarmServeZeroAlloc is the allocs/op regression guard on the warm
// Service.Solve hot path: a cache hit must not allocate. Key assembly
// runs in a pooled byte buffer, the store lookup reads through it without
// materialising a string, and the cached outcome is delivered as-is.
func TestWarmServeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race CI job")
	}
	tree := workload.PaperTree()
	svc := repro.NewService(nil, 64)
	ctx := context.Background()
	if _, status, err := svc.Solve(ctx, tree); err != nil || status != repro.CacheMiss {
		t.Fatalf("prewarm: status %v, err %v", status, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		out, status, err := svc.Solve(ctx, tree)
		if err != nil || out == nil || status != repro.CacheHit {
			t.Fatalf("warm solve: status %v, err %v", status, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm Service.Solve allocates %.1f objects/op, want 0", allocs)
	}
}

// TestBatchEvalZeroAlloc is the allocs/op regression guard on the batch
// delay kernel: once a BatchFrame's accumulator lanes are sized, repeated
// FlatDelayBatch calls over the same plan must not allocate — the genetic
// population and annealing restart pack ride this path every generation.
func TestBatchEvalZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race CI job")
	}
	tree := workload.PaperTree()
	c := model.Compile(tree)
	const lanes = 8
	locs := make([][]model.Location, lanes)
	for i := range locs {
		locs[i] = make([]model.Location, c.Len())
		if i%2 == 0 {
			c.BaseLocations(locs[i])
		} else {
			c.TopmostLocations(locs[i])
		}
	}
	out := make([]float64, lanes)
	fr := eval.GetBatchFrame()
	defer eval.PutBatchFrame(fr)
	eval.FlatDelayBatch(c, locs, out, fr) // size the lanes
	allocs := testing.AllocsPerRun(200, func() {
		eval.FlatDelayBatch(c, locs, out, fr)
	})
	if allocs != 0 {
		t.Fatalf("FlatDelayBatch allocates %.1f objects/op, want 0", allocs)
	}
}

// TestStripedArenaZeroAlloc guards the per-P scratch arenas: a steady
// Get/Put cycle must serve every checkout from a stripe, never the cold
// allocator — the property that keeps the parallel workers, batch
// evaluators and warm serve path allocation-free across GC cycles.
func TestStripedArenaZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race CI job")
	}
	eval.PutBatchFrame(eval.GetBatchFrame()) // park one frame in this P's stripe
	allocs := testing.AllocsPerRun(200, func() {
		fr := eval.GetBatchFrame()
		eval.PutBatchFrame(fr)
	})
	if allocs != 0 {
		t.Fatalf("striped Get/Put cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// TestBranchAndBoundWidthOneAllocs is the allocs/op regression guard on
// the width-1 branch-and-bound: one solve of a 24-CRU instance costs a
// handful of allocations (result, assignment, the anytime closures), not
// the worker, deque and frame machinery of the wider search — whichever
// wire name asks for width 1.
func TestBranchAndBoundWidthOneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the guard runs in the non-race CI job")
	}
	tree := workload.Random(rand.New(rand.NewSource(11)), workload.DefaultRandomSpec(24, 3))
	ctx := context.Background()
	direct := testing.AllocsPerRun(50, func() {
		if _, err := exact.BranchAndBound(ctx, tree, exact.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	if direct > 6 {
		t.Fatalf("width-1 branch-and-bound allocates %.1f objects/op, want <= 6", direct)
	}
	viaRegistry := func(req core.Request) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := core.SolveContext(ctx, req); err != nil {
				t.Fatal(err)
			}
		})
	}
	seq := viaRegistry(core.Request{Tree: tree, Algorithm: core.BranchBound})
	par := viaRegistry(core.Request{Tree: tree, Algorithm: core.ParallelBnB, Parallelism: 1})
	if par != seq {
		t.Fatalf("parallel-bnb at Parallelism 1 allocates %.1f objects/op, branch-and-bound %.1f; want equal", par, seq)
	}
}

// TestBranchAndBoundFloorNodes is the deterministic node gate on the
// per-satellite floor in the branch-and-bound's bound: the width-1,
// cache-less search over a pinned 100-instance corpus (24-32 CRUs, 3
// satellites) explores at most half the 7,717,769 nodes it explored with
// the must-host bound alone. Node counts do not depend on the machine,
// so the gate holds on noisy shared runners too.
func TestBranchAndBoundFloorNodes(t *testing.T) {
	const limit = 3858884
	ctx := context.Background()
	total := 0
	for seed := int64(1); seed <= 100; seed++ {
		tree := workload.Random(rand.New(rand.NewSource(seed)), workload.DefaultRandomSpec(24+int(seed%9), 3))
		res, err := exact.BranchAndBound(ctx, tree, exact.Options{Workers: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		total += res.Explored
	}
	t.Logf("explored %d nodes over 100 instances (gate %d)", total, limit)
	if total > limit {
		t.Fatalf("explored %d nodes, want <= %d", total, limit)
	}
}
