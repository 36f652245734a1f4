package bench

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/load"
)

// p6Ballast holds the tuned configuration's heap ballast for the run's
// lifetime. Package-level so no compiler analysis can prove it dead and
// collect it mid-measurement.
var p6Ballast []byte

// p6Config is one GC posture under test: a GOGC percentage and a heap
// ballast.
type p6Config struct {
	name       string
	gogc       int
	ballastMiB int64
}

// p6Delta is the GC activity one measured run induced.
type p6Delta struct {
	cycles    uint32
	pause     time.Duration
	heapAfter uint64
}

// P6GCTuning measures GC pacing — the GOGC percentage and a heap
// ballast — under a cache-hit-heavy serving load: a sustained
// elastic fleet run with a node joining and leaving mid-measure. The
// same deterministic workload runs twice against a fresh 2-node
// self-hosted fleet — default pacing (GOGC=100, no ballast), then the
// tuned heap (GOGC=300 + 192 MiB ballast) — and the table compares GC
// cycles, total pause and the client-observed solve tail. Expectation:
// the tuned heap collects a small fraction as often for a modest p95
// change; the join/leave churn is identical in both runs (same spec
// events), so the GC posture is the only variable.
func P6GCTuning() (*Table, error) {
	spec := &load.Spec{
		Name:     "p6-gc",
		Seed:     11,
		RPS:      300,
		Duration: load.Duration(2 * time.Second),
		Warmup:   load.Duration(400 * time.Millisecond),
		Workers:  16,
		Corpus:   load.CorpusSpec{Instances: 24, MinCRUs: 8, MaxCRUs: 16, Satellites: 3, ZipfS: 1.2},
		Mix: load.MixSpec{
			Classes:    map[string]float64{load.ClassSolve: 0.8, load.ClassBatch: 0.1, load.ClassSession: 0.1},
			SessionOps: 3,
		},
		ScrapeInterval: load.Duration(-1), // the table is client-side; skip the scraper
		Events: []load.EventSpec{
			{At: load.Duration(600 * time.Millisecond), Action: load.EventJoin},
			{At: load.Duration(1400 * time.Millisecond), Action: load.EventLeave},
		},
	}
	spec.ApplyDefaults()
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("P6: %w", err)
	}

	configs := []p6Config{
		{name: "default", gogc: 100, ballastMiB: 0},
		{name: "tuned", gogc: 300, ballastMiB: 192},
	}

	t := &Table{
		ID:    "P6",
		Title: "perf: GC pacing (gogc + ballast) under elastic fleet load",
		Paper: "engineering extension: serving-tier GC hygiene, not a paper artefact",
		Columns: []string{"config", "gogc", "ballast", "gc_cycles", "pause_total",
			"solve_p95", "req/s", "errors"},
	}

	var pauses []time.Duration
	var cycles []uint32
	for _, cfg := range configs {
		res, delta, err := p6Run(cfg, spec)
		if err != nil {
			return nil, fmt.Errorf("P6 %s: %w", cfg.name, err)
		}
		solve := res.Classes[load.ClassSolve]
		p95 := time.Duration(solve.Latency.P95US * float64(time.Microsecond))
		t.AddRow(cfg.name, cfg.gogc, fmt.Sprintf("%dMiB", cfg.ballastMiB),
			delta.cycles, delta.pause.Round(10*time.Microsecond),
			p95.Round(10*time.Microsecond), fmt.Sprintf("%.0f", res.AchievedRPS),
			res.Errors+res.Timeouts)
		t.AddMetric(cfg.name+"/gc_cycles", float64(delta.cycles), "collections")
		t.AddMetric(cfg.name+"/gc_pause_us", float64(delta.pause.Microseconds()), "us")
		t.AddMetric(cfg.name+"/solve_p95_us", solve.Latency.P95US, "us")
		t.AddMetric(cfg.name+"/rps", res.AchievedRPS, "req/s")
		if res.Errors+res.Timeouts > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: %d errors + %d timeouts under membership churn",
				cfg.name, res.Errors, res.Timeouts))
		}
		pauses = append(pauses, delta.pause)
		cycles = append(cycles, delta.cycles)
	}

	if cycles[1] > 0 && cycles[0] > 0 {
		t.AddMetric("cycle_reduction", float64(cycles[0])/float64(cycles[1]), "x")
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("same workload + join@0.6s/leave@1.4s both runs; default %d collections (%v paused) vs tuned %d (%v)",
			cycles[0], pauses[0].Round(10*time.Microsecond), cycles[1], pauses[1].Round(10*time.Microsecond)),
		"in-process measurement: the fleet and the load generator share one runtime, as crload -fleet does")
	return t, nil
}

// p6Run executes the workload once under one GC posture against a fresh
// fleet, returning the client-side result and the GC activity the
// measured run induced. The previous GC percent is always restored and
// the ballast released before returning.
func p6Run(cfg p6Config, spec *load.Spec) (*load.Result, p6Delta, error) {
	fleet, err := load.SelfHostFleet(2)
	if err != nil {
		return nil, p6Delta{}, fmt.Errorf("starting fleet: %w", err)
	}
	defer fleet.Close()

	prev := debug.SetGCPercent(cfg.gogc)
	defer debug.SetGCPercent(prev)
	if cfg.ballastMiB > 0 {
		p6Ballast = make([]byte, cfg.ballastMiB<<20)
		defer func() { p6Ballast = nil }()
	}
	// Settle the pacer at the new target so the first measured collection
	// is driven by the workload, not by the posture change itself.
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	res, err := load.Run(context.Background(), spec, load.RunOptions{
		Targets: fleet.URLs(),
		OnEvent: load.FleetEvent(fleet),
	})
	if err != nil {
		return nil, p6Delta{}, err
	}

	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return res, p6Delta{
		cycles:    after.NumGC - before.NumGC,
		pause:     time.Duration(after.PauseTotalNs - before.PauseTotalNs),
		heapAfter: after.HeapAlloc,
	}, nil
}
