package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro"
	"repro/api"
	"repro/internal/load"
)

// workload is one named traffic mix. setup starts the fleet, generates
// the corpus, computes the oracle and sends the warm-up traffic.
type workload struct {
	name, why string
	setup     func(e *env) (*bench, error)
}

// Each why is the workload's one-line rationale; BENCHMARK.json carries
// the same text (a test keeps the two equal).
var workloads = []workload{
	{"warm-solve", "open loop at 600 req/s (limit 25 ms), then a closed peak phase, on a 2-node ring: 90% solve, 10% batch over 32 hot instances, so time goes to the wire, not the solver", setupWarmSolve},
	{"cold-exact", "closed loop, 1 client, 1 node: distinct 24-32 CRU instances, each sent once, half branch-and-bound, half parallel-bnb, so the exact search dominates and no cache helps", setupColdExact},
	{"deadline-jobs", "open loop at 15 jobs/s (limit 150 ms) of 36-44 CRU jobs with a 50 ms deadline, planner-chosen, a quarter portfolio: queue, planner and anytime partial results", setupDeadlineJobs},
}

// env is what a set-up needs from the command line.
type env struct {
	seed    int64
	nproc   int
	seconds int
	tr      *tracer
}

// bench is a set-up workload, ready to measure.
type bench struct {
	f       *fleet
	cs      []*client
	nproc   int
	warm    *phase // warm-up traffic, checked like the rest
	main    traffic
	peak    bool // also run a closed-loop peak phase with main's op
	next    int  // next unused ticket
	tickets int  // tickets the corpus holds (0 = no limit)
	checkFn func(s *sample) error
	// layers adds the workload's own per-layer metrics for the traced
	// phase; extras its workload-specific end-to-end metrics.
	layers func(lc *layerCtx, m map[string]float64) error
	extras func(p *phase, m map[string]float64)
	// replayBodies are solve bodies of the traced phase for the api,
	// model and cache replays (nil when the workload sends none).
	replayBodies func(p *phase) [][]byte
	// release drops the workload's corpus, streams and oracle once the
	// answers are checked, so the live heap read afterwards is the fleet's.
	release func()
}

// remaining is how many tickets are left to send (0 = no limit).
func (b *bench) remaining() int {
	if b.tickets == 0 {
		return 0
	}
	return max(1, b.tickets-b.next)
}

func (b *bench) close() {
	closeClients(b.cs)
	b.f.close()
}

// check runs the workload's checker on every successful op of p, spread
// over nproc goroutines.
func (b *bench) check(p *phase) {
	var wg sync.WaitGroup
	for w := range b.nproc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(p.samples); i += b.nproc {
				if s := &p.samples[i]; s.err == nil {
					s.wrong = b.checkFn(s)
				}
			}
		}()
	}
	wg.Wait()
}

// newSpec is a load spec for a corpus and mix. NewGenerator validates
// the whole spec, so it carries a rate and duration, which only the
// crload harness reads.
func newSpec(seed int64, instances, minCRUs, maxCRUs int, zipf float64, mix load.MixSpec) *load.Spec {
	s := &load.Spec{
		Seed: seed, RPS: 1, Duration: load.Duration(time.Second),
		Corpus: load.CorpusSpec{Instances: instances, MinCRUs: minCRUs, MaxCRUs: maxCRUs, Satellites: 3, ZipfS: zipf},
		Mix:    mix,
	}
	s.ApplyDefaults()
	return s
}

// oracleAll computes the optimum of every corpus instance, spread over
// nproc goroutines.
func oracleAll(g *load.Generator, nproc int) ([]optimum, error) {
	opts := make([]optimum, g.Instances())
	errs := make([]error, nproc)
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(opts); i += nproc {
				body, err := g.SolveBody(load.Draw{Instance: i})
				if err == nil {
					var t *repro.Tree
					if t, err = treeOf(body); err == nil {
						opts[i], err = solveOracle(t)
					}
				}
				if err != nil {
					errs[w] = fmt.Errorf("instance %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return opts, nil
}

// distinctOrder is a seeded permutation of the corpus with repeated
// instances (equal fingerprints) dropped, so each is sent once.
func distinctOrder(seed int64, g *load.Generator) []int {
	seen := make(map[string]bool, g.Instances())
	var order []int
	for _, i := range rand.New(rand.NewSource(seed)).Perm(g.Instances()) {
		if fp := g.Fingerprint(i); !seen[fp] {
			seen[fp] = true
			order = append(order, i)
		}
	}
	return order
}

// checkAgainstOracle checks the answer r to request body against the
// optimum of the instance the body carries, computed now: each instance
// is sent once, so its oracle runs once, after the measured phase.
func checkAgainstOracle(body []byte, r *api.SolveResponse, partialOK bool) (optimum, error) {
	t, err := treeOf(body)
	if err != nil {
		return optimum{}, err
	}
	o, err := solveOracle(t)
	if err != nil {
		return o, err
	}
	return o, checkSolve(t, o, r, partialOK)
}

// newBench starts a fleet of nodes with clients load-generating clients.
func newBench(e *env, nodes, clients int) (*bench, error) {
	f, err := startFleet(nodes, e.tr)
	if err != nil {
		return nil, err
	}
	return &bench{f: f, cs: newClients(clients, f, e.tr), nproc: e.nproc}, nil
}

// ---- warm-solve ----

// warm-solve runs at about a fifth of its closed-loop peak on a 2-core
// host (peak_rps 2.4k-3.2k), where its tail stays steady between runs.
// The goodput limit is twice the highest p99 seen there (13.1 ms), so
// goodput counts the ops a stall pushes far out, not the usual tail.
const (
	warmRate   = 600
	warmLimit  = 25 * time.Millisecond
	warmStream = 1024
)

// warmEntry is one request of the warm-solve stream with the instances
// its answer must be for.
type warmEntry struct {
	path string
	body []byte
	want []int // corpus index per item
}

// warmStreamOf draws the seeded request stream: 90% solves and 10%
// batches of 4-12 items over the Zipf-skewed corpus.
func warmStreamOf(seed int64) (*load.Generator, []warmEntry, error) {
	g, err := load.NewGenerator(newSpec(seed, 32, 8, 20, 1.2, load.MixSpec{
		Classes:  map[string]float64{load.ClassSolve: 0.9, load.ClassBatch: 0.1},
		BatchMin: 4, BatchMax: 12,
	}))
	if err != nil {
		return nil, nil, err
	}
	byFP := make(map[string]int, g.Instances())
	for i := 0; i < g.Instances(); i++ {
		byFP[g.Fingerprint(i)] = i
	}
	smp := g.NewSampler(0)
	stream := make([]warmEntry, warmStream)
	for k := range stream {
		d := smp.Draw()
		e := &stream[k]
		if d.Class == load.ClassBatch {
			e.path = "/v1/batch"
			if e.body, err = g.BatchBody(smp, d); err != nil {
				return nil, nil, err
			}
			var req api.BatchRequest
			if err := json.Unmarshal(e.body, &req); err != nil {
				return nil, nil, err
			}
			for _, it := range req.Items {
				t, err := it.Tree()
				if err != nil {
					return nil, nil, err
				}
				e.want = append(e.want, byFP[repro.Fingerprint(t)])
			}
			continue
		}
		e.path = "/v1/solve"
		if e.body, err = g.SolveBody(d); err != nil {
			return nil, nil, err
		}
		e.want = []int{d.Instance}
	}
	return g, stream, nil
}

func setupWarmSolve(e *env) (*bench, error) {
	g, stream, err := warmStreamOf(e.seed)
	if err != nil {
		return nil, err
	}
	opts, err := oracleAll(g, e.nproc)
	if err != nil {
		return nil, err
	}
	trees := make([]*repro.Tree, g.Instances())
	solveBodies := make([][]byte, g.Instances())
	for i := range trees {
		if solveBodies[i], err = g.SolveBody(load.Draw{Instance: i}); err != nil {
			return nil, err
		}
		if trees[i], err = treeOf(solveBodies[i]); err != nil {
			return nil, err
		}
	}
	b, err := newBench(e, 2, e.nproc)
	if err != nil {
		return nil, err
	}
	type warmRec struct {
		entry *warmEntry
		resp  []byte
	}
	b.main = traffic{rate: warmRate, limit: warmLimit, op: func(c *client, ticket int) (any, error) {
		en := &stream[ticket%len(stream)]
		resp, err := c.call("POST", en.path, en.body)
		return warmRec{en, resp}, err
	}}
	b.peak = true
	b.checkFn = func(s *sample) error {
		r := s.rec.(warmRec)
		s.kind = r.entry.path[len("/v1/"):]
		var answers []*api.SolveResponse
		if r.entry.path == "/v1/batch" {
			var br api.BatchResponse
			if err := json.Unmarshal(r.resp, &br); err != nil {
				return err
			}
			if len(br.Items) != len(r.entry.want) {
				return fmt.Errorf("batch of %d answered with %d items", len(r.entry.want), len(br.Items))
			}
			for _, it := range br.Items {
				if it.Error != nil {
					return fmt.Errorf("batch item failed: %s", it.Error.Message)
				}
				answers = append(answers, it.Response)
			}
		} else {
			var sr api.SolveResponse
			if err := json.Unmarshal(r.resp, &sr); err != nil {
				return err
			}
			answers = []*api.SolveResponse{&sr}
		}
		s.served = answers
		for k, a := range answers {
			i := r.entry.want[k]
			if err := checkSolve(trees[i], opts[i], a, false); err != nil {
				return err
			}
		}
		return nil
	}
	b.release = func() { g, stream, opts, trees, solveBodies = nil, nil, nil, nil, nil }
	b.replayBodies = func(p *phase) [][]byte {
		var out [][]byte
		for _, s := range p.samples {
			if r, ok := s.rec.(warmRec); ok && r.entry.path == "/v1/solve" {
				out = append(out, r.entry.body)
			}
		}
		return out
	}
	// Warm-up: every instance once, which fills its owner's result cache,
	// then one pass of the stream head.
	warm := func(c *client, ticket int) (any, error) {
		if ticket < len(solveBodies) {
			en := &warmEntry{path: "/v1/solve", body: solveBodies[ticket], want: []int{ticket}}
			resp, err := c.call("POST", en.path, en.body)
			return warmRec{en, resp}, err
		}
		return b.main.op(c, ticket)
	}
	b.warm = runPhase("warm-up", b.cs, traffic{op: warm}, time.Minute, 0, len(solveBodies)+256)
	return b, nil
}

// ---- cold-exact ----

const (
	// coldPerClientSecond sizes the corpus at 1.8-2.6x what one client
	// completed per second on a 2-core host (233-340). A phase that
	// exhausts its share ends early, says so, and reports rates over the
	// time it ran.
	coldPerClientSecond = 600
	coldWarmup          = 16
	// coldClients is 1, so a solve's latency is its own and parallel-bnb
	// has the cores to itself; with nproc clients on a 2-core host the
	// same seed's p50 spread 15% over five runs.
	coldClients = 1
)

// coldInputs are cold-exact's inputs: distinct instances in a seeded
// send order and each ticket's algorithm.
type coldInputs struct {
	g     *load.Generator
	order []int
	algs  []string
}

func coldInputsOf(seed int64, instances int) (*coldInputs, error) {
	g, err := load.NewGenerator(newSpec(seed, instances, 24, 32, -1, load.MixSpec{
		Classes:    map[string]float64{load.ClassSolve: 1},
		Algorithms: map[string]float64{string(repro.BranchBound): 1, string(repro.ParallelBnB): 1},
	}))
	if err != nil {
		return nil, err
	}
	in := &coldInputs{g: g, order: distinctOrder(seed, g)}
	in.algs = make([]string, len(in.order))
	smp := g.NewSampler(0)
	for k := range in.algs {
		in.algs[k] = smp.Draw().Algorithm
	}
	return in, nil
}

func (in *coldInputs) body(ticket int) ([]byte, error) {
	return in.g.SolveBody(load.Draw{Instance: in.order[ticket], Algorithm: in.algs[ticket]})
}

func setupColdExact(e *env) (*bench, error) {
	in, err := coldInputsOf(e.seed, coldWarmup+coldPerClientSecond*coldClients*e.seconds)
	if err != nil {
		return nil, err
	}
	sessions, err := sessionLogs(e.seed)
	if err != nil {
		return nil, err
	}
	b, err := newBench(e, 1, coldClients)
	if err != nil {
		return nil, err
	}
	type coldRec struct {
		ticket int
		resp   []byte
	}
	b.main = traffic{op: func(c *client, ticket int) (any, error) {
		body, err := in.body(ticket)
		if err != nil {
			return nil, err
		}
		resp, err := c.call("POST", "/v1/solve", body)
		return coldRec{ticket, resp}, err
	}}
	b.tickets = len(in.order)
	b.checkFn = func(s *sample) error {
		r := s.rec.(coldRec)
		s.kind = "solve"
		body, err := in.body(r.ticket)
		if err != nil {
			return err
		}
		var sr api.SolveResponse
		if err := json.Unmarshal(r.resp, &sr); err != nil {
			return err
		}
		s.served = []*api.SolveResponse{&sr}
		if sr.Algorithm != in.algs[r.ticket] {
			return fmt.Errorf("asked for %s, served by %s", in.algs[r.ticket], sr.Algorithm)
		}
		_, err = checkAgainstOracle(body, &sr, false)
		return err
	}
	b.replayBodies = func(p *phase) [][]byte {
		var out [][]byte
		for _, s := range p.samples {
			if r, ok := s.rec.(coldRec); ok {
				if body, err := in.body(r.ticket); err == nil {
					out = append(out, body)
				}
			}
		}
		return out
	}
	b.layers = func(lc *layerCtx, m map[string]float64) error { return sessionLayers(sessions, m) }
	b.release = func() { in, sessions = nil, nil }
	b.warm = runPhase("warm-up", b.cs, b.main, time.Minute, 0, coldWarmup)
	b.next = b.warm.next
	return b, nil
}

// ---- session replay ----

// The session layer is measured in cold-exact's traced run, by an
// in-process replay (sessionLayers) of replaySessions sessions on 24-32
// CRU instances drawn from the seed: each is opened, solved once, then
// drifted and re-solved sessionOps times.
const (
	replaySessions = 32
	sessionOps     = 8
)

// sessionLog is one replayed session: its open body, then each mutate body.
type sessionLog struct {
	open []byte
	muts [][]byte
}

func sessionGenerator(seed int64) (*load.Generator, error) {
	return load.NewGenerator(newSpec(seed, replaySessions, 24, 32, -1, load.MixSpec{
		Classes:        map[string]float64{load.ClassSession: 1},
		Algorithms:     map[string]float64{string(repro.BranchBound): 1},
		SessionOps:     sessionOps,
		MutationsPerOp: 1,
		DriftFraction:  0.05,
	}))
}

// sessionLogs draws the replayed sessions, one per instance of the
// session corpus, each op drifting one CRU's weights by up to 5%.
func sessionLogs(seed int64) ([]*sessionLog, error) {
	g, err := sessionGenerator(seed)
	if err != nil {
		return nil, err
	}
	smp := g.NewSampler(1)
	logs := make([]*sessionLog, g.Instances())
	for i := range logs {
		open, err := g.OpenBody(load.Draw{Instance: i, Algorithm: string(repro.BranchBound)})
		if err != nil {
			return nil, err
		}
		logs[i] = &sessionLog{open: open}
		for range sessionOps {
			body, err := g.MutateBody(smp, i)
			if err != nil {
				return nil, err
			}
			logs[i].muts = append(logs[i].muts, body)
		}
	}
	return logs, nil
}

// ---- deadline-jobs ----

// deadline-jobs runs at 40% of the 37-38 jobs/s a closed loop of 2
// clients completes on a 2-core host. There its p99 measured 72-76 ms
// (89-98 ms in the saturated closed loop); the goodput limit is twice
// the open loop's.
const (
	jobRate       = 15
	jobLimit      = 150 * time.Millisecond
	jobDeadlineMS = 50
	jobWarmup     = 4
	jobWait       = "2000" // long-poll wait per GET, ms
)

// jobInputs are deadline-jobs' inputs: distinct instances in a seeded
// send order and which tickets ask for a portfolio race.
type jobInputs struct {
	g, gp     *load.Generator // the same corpus; gp's bodies set portfolio
	order     []int
	portfolio []bool
}

func jobInputsOf(seed int64, instances int) (*jobInputs, error) {
	mix := load.MixSpec{Classes: map[string]float64{load.ClassJobs: 1}, JobDeadlineMS: jobDeadlineMS}
	g, err := load.NewGenerator(newSpec(seed, instances, 36, 44, -1, mix))
	if err != nil {
		return nil, err
	}
	mix.JobPortfolio = true
	gp, err := load.NewGenerator(newSpec(seed, instances, 36, 44, -1, mix))
	if err != nil {
		return nil, err
	}
	in := &jobInputs{g: g, gp: gp, order: distinctOrder(seed, g)}
	rng := rand.New(rand.NewSource(seed))
	in.portfolio = make([]bool, len(in.order))
	for k := range in.portfolio {
		in.portfolio[k] = rng.Intn(4) == 0
	}
	return in, nil
}

func (in *jobInputs) body(ticket int) ([]byte, error) {
	d := load.Draw{Instance: in.order[ticket]}
	if in.portfolio[ticket] {
		return in.gp.JobBody(d)
	}
	return in.g.JobBody(d)
}

// jobRec is one job's final state.
type jobRec struct {
	ticket int
	final  *api.JobResponse
}

func setupDeadlineJobs(e *env) (*bench, error) {
	in, err := jobInputsOf(e.seed, jobWarmup+jobRate*e.seconds+16)
	if err != nil {
		return nil, err
	}
	opt := make([]float64, len(in.order)) // each ticket's optimum, set by the check
	b, err := newBench(e, 1, e.nproc)
	if err != nil {
		return nil, err
	}
	// An op is a submit, then long-polls until the job is terminal.
	op := func(c *client, ticket int) (any, error) {
		req, err := in.body(ticket)
		if err != nil {
			return nil, err
		}
		resp, err := c.call("POST", "/v1/jobs", req)
		for err == nil {
			var jr api.JobResponse
			if err = json.Unmarshal(resp, &jr); err != nil {
				break
			}
			switch jr.State {
			case "queued", "running":
				resp, err = c.call("GET", "/v1/jobs/"+jr.JobID+"?wait="+jobWait, nil)
				continue
			case "done":
				return jobRec{ticket, &jr}, nil
			}
			return nil, fmt.Errorf("job %s ended %s", jr.JobID, jr.State)
		}
		return nil, err
	}
	b.main = traffic{rate: jobRate, limit: jobLimit, op: op}
	b.tickets = len(in.order)
	b.checkFn = func(s *sample) error {
		r := s.rec.(jobRec)
		s.kind = "job"
		s.served = []*api.SolveResponse{r.final.Result}
		req, err := in.body(r.ticket)
		if err != nil {
			return err
		}
		o, err := checkAgainstOracle(req, r.final.Result, true)
		opt[r.ticket] = o.opt
		return err
	}
	b.extras = func(p *phase, m map[string]float64) {
		var gaps []float64
		exact := 0
		for _, s := range p.samples {
			if s.err != nil || s.wrong != nil {
				continue
			}
			r := s.rec.(jobRec)
			res := r.final.Result
			gaps = append(gaps, res.Delay/opt[r.ticket]-1)
			if res.Exact && !res.Partial {
				exact++
			}
		}
		m["opt_gap"] = mean(gaps)
		m["exact_frac"] = frac(float64(exact), float64(len(p.samples)))
	}
	b.layers = jobLayers
	b.release = func() { in = nil }
	b.warm = runPhase("warm-up", b.cs, traffic{op: op}, time.Minute, 0, jobWarmup)
	b.next = b.warm.next
	return b, nil
}
