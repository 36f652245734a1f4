// Command perfbench is the repository's benchmark. It runs one named
// workload against in-process httpserve nodes, checks every answer
// against an exact oracle, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as the last line of its output:
//
//	bash perfbench/run.sh --workload warm-solve --seed 1 --seconds 10 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run sets the workload up; setup_s is
// the median, and the last set-up is the one measured.
const setupReps = 5

// spansDir is where a traced run writes its spans, under the checkout.
const spansDir = ".bench_build/spans"

type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"p50_ms", "ms"}, {"p95_ms", "ms"}, {"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"}, {"live_heap_mb", "MB"},
}

// perLayer are the metrics every workload reports with --trace 1. The
// e2e.* ones are end-to-end metrics that exist on one workload only,
// read 0 on a healthy run, or (p99) swing too far between runs on a
// shared host to be bounded like endToEnd.
var perLayer = []metricDef{
	{"e2e.p99_ms", "ms"}, {"e2e.peak_rps", "1/s"}, {"e2e.error_frac", "frac"}, {"e2e.opt_gap", "frac"}, {"e2e.exact_frac", "frac"},
	{"client.late_p99_ms", "ms"}, {"client.inflight_max", "count"},
	{"httpserve.handler_p50_us", "us"}, {"httpserve.handler_p99_us", "us"}, {"httpserve.wire_p50_us", "us"},
	{"httpserve.batch_p50_ms", "ms"}, {"httpserve.rejected", "count"}, {"httpserve.self_us", "us"},
	{"api.decode_us", "us"}, {"model.from_spec_us", "us"}, {"model.fingerprint_us", "us"}, {"api.encode_us", "us"},
	{"cache.hit_ratio", "frac"}, {"cache.shared", "count"}, {"cache.evictions", "count"}, {"cache.hit_us", "us"},
	{"cluster.forward_frac", "frac"}, {"cluster.hedges", "count"}, {"cluster.local_fallbacks", "count"}, {"cluster.forward_p50_us", "us"},
	{"solver.explored_per_solve", "count"}, {"solver.pruned_per_solve", "count"}, {"solver.ns_per_node", "ns"},
	{"solver.bnb_ms_p50", "ms"}, {"solver.parallel_bnb_ms_p50", "ms"}, {"solver.busy_frac", "frac"},
	{"boundcache.hit_ratio", "frac"}, {"boundcache.replay_frac", "frac"},
	{"session.mutate_us", "us"}, {"session.resolve_ms", "ms"}, {"session.warm_vs_cold_explored", "frac"},
	{"jobs.queue_wait_ms_p50", "ms"}, {"jobs.queue_depth_max", "count"}, {"jobs.partial_frac", "frac"},
	{"jobs.incumbents_per_job", "count"}, {"jobs.portfolio_heuristic_win_frac", "frac"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.alloc_kb_per_op", "KB"}, {"runtime.mallocs_per_op", "count"},
	{"trace.overhead_frac", "frac"}, {"trace.ops_overhead_frac", "frac"},
	{"trace.client_self_us", "us"}, {"trace.origin_self_us", "us"}, {"trace.forward_self_us", "us"}, {"trace.owner_self_us", "us"},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	spans    string // directory for the traced run's spans ("" = keep none)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := options{spans: spansDir}
	flag.StringVar(&o.workload, "workload", "", "workload name: warm-solve, cold-exact or deadline-jobs")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured traffic")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// run sets the workload up setupReps times, measures the last set-up,
// checks every answer and returns the result line; the human-readable
// report goes to out.
func run(o options, out io.Writer) (*result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 || o.trace < 0 || o.trace > 1 {
		return nil, fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	prov, _ := json.Marshal(provenance(o, w.why, nproc))
	fmt.Fprintf(out, "# provenance %s\n", prov)

	e := &env{seed: o.seed, nproc: nproc, seconds: o.seconds, tr: newTracer()}
	var b *bench
	var setups []float64
	for k := 0; k < setupReps; k++ {
		t0 := time.Now()
		nb, err := w.setup(e)
		if err != nil {
			if b != nil {
				b.close()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if b != nil {
			b.close()
		}
		b = nb
	}
	defer b.close()

	d := time.Duration(o.seconds) * time.Second
	share := b.remaining()
	if o.trace == 1 {
		// The traced half gets its own half of a finite corpus, so a
		// fast untraced half cannot leave it nothing to send.
		d = d / 2
		if share > 0 {
			share = max(1, share/2)
		}
	}
	measured := measure(b, d, share)
	var lc *layerCtx
	if o.trace == 1 {
		var err error
		if lc, err = traced(b, e.tr, d); err != nil {
			return nil, err
		}
		measured = append(measured, lc.t)
	}

	b.check(b.warm)
	res := &result{Correct: true, Metrics: map[string]metric{}}
	for _, p := range append([]*phase{b.warm}, measured...) {
		if p != b.warm {
			b.check(p)
		}
		st := p.stats()
		if p != b.warm {
			res.Attempted += st.attempted
			res.Failed += st.failed
		}
		fmt.Fprintf(out, "# phase %s: sent=%d succeeded=%d failed=%d shed=%d", p.name, st.attempted-st.shed, len(st.lat), st.failed, st.shed)
		if p.open {
			fmt.Fprintf(out, " late_p99_ms=%.3f", quantile(st.late, 0.99))
		}
		fmt.Fprintln(out)
		if p.exhausted && p != b.warm { // a warm-up is meant to end so
			warn := fmt.Sprintf("# phase %s ran out of tickets after %.2f s; its rates are over the time it ran", p.name, p.wall.Seconds())
			fmt.Fprintln(out, warn)
			fmt.Fprintln(os.Stderr, "perfbench:", warn[2:])
		}
		reported := false
		for _, s := range p.samples {
			if s.err != nil && !s.shed && !reported {
				fmt.Fprintf(out, "# first failure in %s: %v\n", p.name, s.err)
				reported = true
			}
			if s.wrong != nil {
				if res.Correct {
					fmt.Fprintf(out, "# WRONG ANSWER in %s, ticket %d: %v\n", p.name, s.ticket, s.wrong)
				}
				res.Correct = false
			}
		}
	}

	mp := measured[0]
	mst := mp.stats()
	e2e := map[string]float64{
		"setup_s":       quantile(setups, 0.5),
		"p50_ms":        mst.p50,
		"p95_ms":        mst.p95,
		"p99_ms":        mst.p99,
		"ops_per_s":     mst.opsPerS,
		"cpu_ms_per_op": mst.cpuPerOp,
		"error_frac":    frac(float64(res.Failed), float64(res.Attempted)),
	}
	if b.peak {
		e2e["peak_rps"] = measured[1].stats().opsPerS
	}
	if b.extras != nil {
		b.extras(mp, e2e)
	}

	if o.trace == 1 {
		lc.u, lc.uStats, lc.tStats = mp, mst, lc.t.stats()
		if b.replayBodies != nil {
			var err error
			if lc.replay, err = replayWire(b.replayBodies(lc.t)); err != nil {
				return nil, err
			}
		}
		lc.report = out
		m, err := computeLayers(lc)
		if err != nil {
			return nil, err
		}
		for _, k := range []string{"p99_ms", "peak_rps", "error_frac", "opt_gap", "exact_frac"} {
			m["e2e."+k] = e2e[k]
		}
		for _, def := range perLayer {
			res.Metrics[def.name] = metric{m[def.name], def.unit}
			fmt.Fprintf(out, "# %-36s %14.6g %s\n", def.name, m[def.name], def.unit)
		}
		if o.spans != "" {
			if err := writeSpans(filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed)), lc.spans); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			}
		}
		return res, nil
	}

	// The live heap is read once the answers are checked and dropped
	// with the corpus, so it holds the fleet's state, not the client's.
	for _, p := range append([]*phase{b.warm}, measured...) {
		for i := range p.samples {
			p.samples[i].rec, p.samples[i].served = nil, nil
		}
	}
	b.release()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	e2e["live_heap_mb"] = float64(mem.HeapAlloc) / (1 << 20)

	for _, def := range endToEnd {
		res.Metrics[def.name] = metric{e2e[def.name], def.unit}
	}
	fmt.Fprintf(out, "# setup_s %.4f s (median of %d set-ups: %v)\n", e2e["setup_s"], len(setups), setups)
	fmt.Fprintf(out, "# p50_ms %.4f ms, p95_ms %.4f ms, p99_ms %.4f ms (fast quartiles over %d windows of %d correct ops on average, %d in all)\n",
		e2e["p50_ms"], e2e["p95_ms"], e2e["p99_ms"], mst.windows, len(mst.lat)/mst.windows, len(mst.lat))
	if mp.open {
		fmt.Fprintf(out, "# ops_per_s %.2f 1/s (goodput: correct ops within %v per second)\n", e2e["ops_per_s"], mp.limit)
	} else {
		fmt.Fprintf(out, "# ops_per_s %.2f 1/s (correct ops per second, %d clients)\n", e2e["ops_per_s"], len(b.cs))
	}
	fmt.Fprintf(out, "# cpu_ms_per_op %.4f ms, live_heap_mb %.2f MB, error_frac %.4g\n", e2e["cpu_ms_per_op"], e2e["live_heap_mb"], e2e["error_frac"])
	for _, k := range []string{"peak_rps", "opt_gap", "exact_frac"} {
		if v, ok := e2e[k]; ok {
			fmt.Fprintf(out, "# %s %.6g\n", k, v)
		}
	}
	return res, nil
}

// measure runs the untraced traffic for d, using at most tickets
// tickets (0 = no limit): the main phase, or for a workload with a peak
// phase, 80% open loop and 20% closed-loop peak.
func measure(b *bench, d time.Duration, tickets int) []*phase {
	if !b.peak {
		p := runPhase("main", b.cs, b.main, d, b.next, tickets)
		b.next = p.next
		return []*phase{p}
	}
	open := runPhase("open", b.cs, b.main, d*8/10, b.next, 0)
	peak := runPhase("peak", b.cs, traffic{op: b.main.op}, d*2/10, open.next, 0)
	b.next = peak.next
	return []*phase{open, peak}
}

// traced runs the main traffic for d with spans on, scraping the
// counters around it and sampling the job queue depth.
func traced(b *bench, tr *tracer, d time.Duration) (*layerCtx, error) {
	lc := &layerCtx{b: b}
	var err error
	if lc.v0, err = b.f.scrape(); err != nil {
		return nil, err
	}
	lc.c0 = cacheStats(b.f)
	stop := make(chan struct{})
	sampled := make(chan int64)
	go func() {
		var most int64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				sampled <- most
				return
			case <-tick.C:
				if vs, err := b.f.scrape(); err == nil {
					var depth int64
					for _, v := range vs {
						depth += v.Crserve.Jobs.QueueDepth
					}
					most = max(most, depth)
				}
			}
		}
	}()
	tr.on.Store(true)
	lc.t = runPhase("traced", b.cs, b.main, d, b.next, b.remaining())
	tr.on.Store(false)
	close(stop)
	lc.queueMax = <-sampled
	b.next = lc.t.next
	if lc.v1, err = b.f.scrape(); err != nil {
		return nil, err
	}
	lc.c1 = cacheStats(b.f)
	tr.mu.Lock()
	lc.spans = tr.spans
	tr.mu.Unlock()
	return lc, nil
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// provenance identifies what was measured: the commit when the binary
// was built inside a git checkout, else a digest of the Go sources.
func provenance(o options, why string, nproc int) map[string]any {
	p := map[string]any{
		"workload": o.workload, "why": why, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"nproc": nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"commit": "unknown", "source_sha256": sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p["commit"] = s.Value
			case "vcs.modified":
				p["commit_modified"] = s.Value
			}
		}
	}
	return p
}

// sourceDigest hashes every Go source and module file under root.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
