package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro"
	"repro/api"
)

// layerCtx is what the per-layer metrics are computed from: the
// untraced and traced phases of one traced run, the spans, and the
// /debug/vars and cache counters around the traced phase.
type layerCtx struct {
	b        *bench
	u, t     *phase
	spans    []span
	v0, v1   []vars
	c0, c1   repro.CacheStats
	queueMax int64
	replay   wireReplay
	report   io.Writer
	uStats   phaseStats
	tStats   phaseStats
}

func (lc *layerCtx) delta(get func(v *vars) int64) float64 {
	return float64(varsDelta(lc.v0, lc.v1, get))
}

// selfTimes gives every span's self time: its duration minus the part
// of it its children cover.
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].Start < ivs[j].Start })
		covered, reach := int64(0), s.Start
		for _, c := range ivs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// computeLayers fills every per-layer metric the traced run can see.
// Metrics of a layer the workload does not reach read 0.
func computeLayers(lc *layerCtx) (map[string]float64, error) {
	m := map[string]float64{}
	u, t := lc.uStats, lc.tStats

	// client
	if lc.u.open {
		m["client.late_p99_ms"] = quantile(u.late, 0.99)
	}
	m["client.inflight_max"] = float64(lc.b.cs[0].maxIn.Load())

	// Spans by name; a client op's origin children are its HTTP calls.
	kindOf := map[int64]string{}
	for _, s := range lc.t.samples {
		kindOf[reqID(s.ticket)] = s.kind
	}
	self := selfTimes(lc.spans)
	byID := map[int64]span{}
	var handler, forward []float64
	originOf := map[int64]time.Duration{} // client span → Σ origin durations
	selfByName := map[string][]float64{}
	var solveOriginSelf []float64
	for _, s := range lc.spans {
		byID[s.ID] = s
		if s.Req == 0 {
			continue // not client traffic (the /debug/vars sampler)
		}
		d := time.Duration(s.End - s.Start)
		selfByName[s.Name] = append(selfByName[s.Name], us(self[s.ID]))
		switch s.Name {
		case "origin":
			handler = append(handler, us(d))
			originOf[s.Parent] += d
			if kindOf[s.Req] == "solve" {
				solveOriginSelf = append(solveOriginSelf, us(self[s.ID]))
			}
		case "forward":
			forward = append(forward, us(d))
		}
	}
	var wire []float64
	for _, s := range lc.spans {
		if s.Name == "client" {
			wire = append(wire, us(time.Duration(s.End-s.Start)-originOf[s.ID]))
		}
	}
	var forwardOfSolve []float64
	for _, s := range lc.spans {
		if p, ok := byID[s.Parent]; s.Name == "forward" && ok && kindOf[p.Req] == "solve" {
			forwardOfSolve = append(forwardOfSolve, us(time.Duration(s.End-s.Start)))
		}
	}
	solveFwd := float64(len(forwardOfSolve))
	for _, name := range []string{"client", "origin", "forward", "owner"} {
		m["trace."+name+"_self_us"] = mean(selfByName[name])
	}

	// httpserve
	m["httpserve.handler_p50_us"] = quantile(handler, 0.5)
	m["httpserve.handler_p99_us"] = quantile(handler, 0.99)
	m["httpserve.wire_p50_us"] = quantile(wire, 0.5)
	var batch []float64
	for _, s := range lc.t.samples {
		if s.kind == "batch" && s.err == nil && s.wrong == nil {
			batch = append(batch, ms(s.lat))
		}
	}
	m["httpserve.batch_p50_ms"] = quantile(batch, 0.5)
	m["httpserve.rejected"] = lc.delta(func(v *vars) int64 { return v.Crserve.Requests["rejected"] })

	// cache (Service.Stats deltas over the traced phase)
	hits, misses := float64(lc.c1.Hits-lc.c0.Hits), float64(lc.c1.Misses-lc.c0.Misses)
	shared := float64(lc.c1.Shared - lc.c0.Shared)
	m["cache.hit_ratio"] = frac(hits, hits+misses+shared)
	m["cache.shared"] = shared
	m["cache.evictions"] = float64(lc.c1.Evictions - lc.c0.Evictions)

	// cluster
	fwds := lc.delta(func(v *vars) int64 { return v.Crserve.Cluster.Stats["forwards"] })
	reqs := lc.delta(func(v *vars) int64 { return v.Crserve.Requests["solve"] + v.Crserve.Requests["batch"] })
	m["cluster.forward_frac"] = frac(fwds, reqs-fwds)
	m["cluster.hedges"] = lc.delta(func(v *vars) int64 { return v.Crserve.Cluster.Stats["hedges"] })
	m["cluster.local_fallbacks"] = lc.delta(func(v *vars) int64 { return v.Crserve.Cluster.Stats["local_fallbacks"] })
	m["cluster.forward_p50_us"] = quantile(forward, 0.5)

	// solver and boundcache, from the answers of the traced phase
	var answers, searched, replays, elapsedNS, work, busyNS, latNS float64
	var bnb, pbnb []float64
	for _, s := range lc.t.samples {
		if s.err != nil || s.wrong != nil {
			continue
		}
		var busy float64
		for _, a := range s.served {
			answers++
			if a.Cached {
				continue
			}
			busy += float64(a.ElapsedUS) * 1e3
			switch repro.Algorithm(a.Algorithm) {
			case repro.BranchBound:
				bnb = append(bnb, float64(a.ElapsedUS)/1e3)
			case repro.ParallelBnB:
				pbnb = append(pbnb, float64(a.ElapsedUS)/1e3)
			default:
				continue
			}
			searched++
			if a.Work == 0 {
				replays++
			}
			elapsedNS += float64(a.ElapsedUS) * 1e3
			work += float64(a.Work)
		}
		// A batch's solves overlap, so their sum may exceed the op's time.
		busyNS += min(busy, float64(s.lat))
		latNS += float64(s.lat)
	}
	m["solver.busy_frac"] = frac(busyNS, latNS)
	search := func(key string) float64 {
		return lc.delta(func(v *vars) int64 { return v.Crserve.Search[key] + v.Crserve.Jobs.search(key) })
	}
	m["solver.explored_per_solve"] = frac(search("explored"), answers)
	m["solver.pruned_per_solve"] = frac(search("pruned"), answers)
	m["solver.ns_per_node"] = frac(elapsedNS, work)
	m["solver.bnb_ms_p50"] = quantile(bnb, 0.5)
	m["solver.parallel_bnb_ms_p50"] = quantile(pbnb, 0.5)
	bh, bm := search("bound_hits"), search("bound_misses")
	m["boundcache.hit_ratio"] = frac(bh, bh+bm)
	m["boundcache.replay_frac"] = frac(replays, searched)

	// api, model and cache replays
	r := lc.replay
	m["api.decode_us"], m["model.from_spec_us"] = r.decode.p50, r.fromSpec.p50
	m["model.fingerprint_us"], m["cache.hit_us"], m["api.encode_us"] = r.fingerprint.p50, r.hit.p50, r.encode.p50

	// runtime, over the untraced phase
	ops := float64(len(u.lat))
	m["runtime.gc_cycles"] = float64(lc.u.gcs)
	m["runtime.gc_pause_ms"] = ms(lc.u.gcPause)
	m["runtime.alloc_kb_per_op"] = frac(float64(lc.u.allocBytes)/1024, ops)
	m["runtime.mallocs_per_op"] = frac(float64(lc.u.mallocs), ops)

	// trace overhead: traced against untraced phase of the same run
	if up := quantile(u.lat, 0.5); up > 0 {
		m["trace.overhead_frac"] = quantile(t.lat, 0.5)/up - 1
	}
	if u.opsPerS > 0 {
		m["trace.ops_overhead_frac"] = 1 - t.opsPerS/u.opsPerS
	}

	// The origin-handler span of a solve, accounted layer by layer: the
	// replayed decode, spec build and fingerprint; for the locally served
	// share the cache lookup, the solve (elapsed_us of uncached answers)
	// and the encode. What remains of its self time is httpserve's own:
	// routing, reading the body, relaying a forwarded answer.
	if len(solveOriginSelf) > 0 && r.n > 0 {
		local := 1 - frac(solveFwd, float64(len(solveOriginSelf)))
		var solveUS []float64
		for _, s := range lc.t.samples {
			if s.kind != "solve" || len(s.served) != 1 {
				continue
			}
			elapsed := 0.0 // a cache hit ran no solve
			if a := s.served[0]; !a.Cached {
				elapsed = float64(a.ElapsedUS)
			}
			solveUS = append(solveUS, elapsed)
		}
		parts := []struct {
			name string
			us   float64
		}{
			{"api.decode", r.decode.mean},
			{"model.from_spec", r.fromSpec.mean},
			{"model.fingerprint", r.fingerprint.mean},
			{"cache.hit (local share)", local * r.hit.mean},
			{"solver (local share)", local * mean(solveUS)},
			{"api.encode (local share)", local * r.encode.mean},
		}
		origin := mean(solveOriginSelf)
		rest := origin
		fmt.Fprintf(lc.report, "# origin-handler self time of a solve, mean %.1f us; %.3f of solves forwarded (cluster.forward span, mean %.1f us, not in self time):\n",
			origin, 1-local, mean(forwardOfSolve))
		for _, p := range parts {
			fmt.Fprintf(lc.report, "#   %-26s %8.1f us\n", p.name, p.us)
			rest -= p.us
		}
		fmt.Fprintf(lc.report, "#   %-26s %8.1f us\n", "httpserve (remainder)", rest)
		m["httpserve.self_us"] = rest
	}

	if lc.b.layers != nil {
		if err := lc.b.layers(lc, m); err != nil {
			return nil, fmt.Errorf("per-layer replay: %w", err)
		}
	}
	return m, nil
}

// dist is a replayed step's median and mean, in µs.
type dist struct{ p50, mean float64 }

func distOf(xs []float64) dist { return dist{mean: mean(xs), p50: quantile(xs, 0.5)} }

// wireReplay times the handler's steps one by one on recorded bodies,
// through the same public functions the handler calls.
type wireReplay struct {
	n                                          int
	decode, fromSpec, fingerprint, hit, encode dist
}

// maxReplay caps how many recorded bodies a replay times.
const maxReplay = 256

func replayWire(bodies [][]byte) (wireReplay, error) {
	if len(bodies) > maxReplay {
		bodies = bodies[:maxReplay]
	}
	r := wireReplay{n: len(bodies)}
	if r.n == 0 {
		return r, nil
	}
	svc := repro.NewService(nil, 4096)
	ctx := context.Background()
	var dec, fs, fp, hit, enc []float64
	var buf bytes.Buffer
	for _, body := range bodies {
		var req api.SolveRequest
		t0 := time.Now()
		if err := decodeStrict(body, &req); err != nil {
			return r, fmt.Errorf("replay decode: %w", err)
		}
		t1 := time.Now()
		tree, err := req.Tree()
		if err != nil {
			return r, err
		}
		t2 := time.Now()
		repro.Fingerprint(tree)
		t3 := time.Now()
		if _, _, err := svc.Solve(ctx, tree, req.Options()...); err != nil {
			return r, err // the miss that fills the cache; not timed
		}
		t4 := time.Now()
		out, status, err := svc.Solve(ctx, tree, req.Options()...)
		if err != nil {
			return r, err
		}
		t5 := time.Now()
		buf.Reset()
		e := json.NewEncoder(&buf)
		e.SetIndent("", "  ")
		if err := e.Encode(api.NewSolveResponse(tree, out, status)); err != nil {
			return r, err
		}
		t6 := time.Now()
		dec = append(dec, us(t1.Sub(t0)))
		fs = append(fs, us(t2.Sub(t1)))
		fp = append(fp, us(t3.Sub(t2)))
		hit = append(hit, us(t5.Sub(t4)))
		enc = append(enc, us(t6.Sub(t5)))
	}
	r.decode, r.fromSpec, r.fingerprint = distOf(dec), distOf(fs), distOf(fp)
	r.hit, r.encode = distOf(hit), distOf(enc)
	return r, nil
}

// sessionLayers replays sessions in-process through repro.Session,
// timing each Mutate and Resolve and comparing the nodes each warm
// resolve explored with a cold solve of the same revision.
func sessionLayers(logs []*sessionLog, m map[string]float64) error {
	var mutate, resolve []float64
	var warm, cold float64
	ctx := context.Background()
	svc := repro.NewService(nil, 4096)
	for _, log := range logs {
		if len(mutate) >= maxReplay {
			break
		}
		var open api.OpenSessionRequest
		if err := json.Unmarshal(log.open, &open); err != nil {
			return err
		}
		tree, err := open.Tree()
		if err != nil {
			return err
		}
		sess, err := svc.OpenSession(tree, open.Options()...)
		if err != nil {
			return err
		}
		// The first solve is cold; only re-solves after a drift are timed.
		if _, _, err := sess.Resolve(ctx); err != nil {
			return err
		}
		for _, body := range log.muts {
			var req api.MutateRequest
			if err := json.Unmarshal(body, &req); err != nil {
				return err
			}
			muts, err := api.CompileMutations(req.Mutations)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if err := sess.Mutate(muts...); err != nil {
				return err
			}
			t1 := time.Now()
			out, _, err := sess.Resolve(ctx)
			if err != nil {
				return err
			}
			t2 := time.Now()
			coldOut, err := oracleSolver.Solve(ctx, sess.Tree(), open.Options()...)
			if err != nil {
				return err
			}
			mutate = append(mutate, us(t1.Sub(t0)))
			resolve = append(resolve, ms(t2.Sub(t1)))
			warm += float64(out.Work)
			cold += float64(coldOut.Work)
		}
	}
	m["session.mutate_us"] = quantile(mutate, 0.5)
	m["session.resolve_ms"] = quantile(resolve, 0.5)
	m["session.warm_vs_cold_explored"] = frac(warm, cold)
	return nil
}

// jobLayers reads the job tier's numbers off the traced phase's answers.
func jobLayers(lc *layerCtx, m map[string]float64) error {
	var wait []float64
	var jobs, partial, incumbents, port, heurWins float64
	for _, s := range lc.t.samples {
		r, ok := s.rec.(jobRec)
		if !ok || s.wrong != nil {
			continue
		}
		res := r.final.Result
		jobs++
		wait = append(wait, ms(s.lat)-float64(res.ElapsedUS)/1e3)
		if res.Partial {
			partial++
		}
		incumbents += float64(r.final.NextSeq)
		if r.final.Portfolio {
			port++
			if res.Algorithm == r.final.Heuristic {
				heurWins++
			}
		}
	}
	m["jobs.queue_wait_ms_p50"] = quantile(wait, 0.5)
	m["jobs.queue_depth_max"] = float64(lc.queueMax)
	m["jobs.partial_frac"] = frac(partial, jobs)
	m["jobs.incumbents_per_job"] = frac(incumbents, jobs)
	m["jobs.portfolio_heuristic_win_frac"] = frac(heurWins, port)
	return nil
}
