package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"repro"
	"repro/api"
)

// streams renders every workload's first requests and its oracle values
// for one seed, keyed by workload.
func streams(t *testing.T, seed int64) (map[string][][]byte, map[string][]optimum) {
	t.Helper()
	bodies := map[string][][]byte{}
	opts := map[string][]optimum{}

	g, stream, err := warmStreamOf(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range stream {
		bodies["warm-solve"] = append(bodies["warm-solve"], []byte(e.path), e.body)
	}
	if opts["warm-solve"], err = oracleAll(g, 2); err != nil {
		t.Fatal(err)
	}

	cold, err := coldInputsOf(seed, 64)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := jobInputsOf(seed, 16)
	if err != nil {
		t.Fatal(err)
	}
	for k := range cold.order {
		b, err := cold.body(k)
		if err != nil {
			t.Fatal(err)
		}
		bodies["cold-exact"] = append(bodies["cold-exact"], b)
	}
	for k := range jobs.order {
		b, err := jobs.body(k)
		if err != nil {
			t.Fatal(err)
		}
		bodies["deadline-jobs"] = append(bodies["deadline-jobs"], b)
	}
	if opts["cold-exact"], err = oracleAll(cold.g, 2); err != nil {
		t.Fatal(err)
	}
	if opts["deadline-jobs"], err = oracleAll(jobs.g, 2); err != nil {
		t.Fatal(err)
	}
	// cold-exact's traced run replays sessions drawn from the seed too.
	sessions, err := sessionLogs(seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range sessions {
		bodies["cold-exact"] = append(append(bodies["cold-exact"], l.open), l.muts...)
	}
	return bodies, opts
}

func TestSameSeedSameInputs(t *testing.T) {
	b1, o1 := streams(t, 7)
	b2, o2 := streams(t, 7)
	b3, o3 := streams(t, 8)
	for _, w := range workloads {
		if len(b1[w.name]) == 0 {
			t.Fatalf("%s: no request stream", w.name)
		}
		if !reflect.DeepEqual(b1[w.name], b2[w.name]) {
			t.Errorf("%s: seed 7 gave two different request streams", w.name)
		}
		if reflect.DeepEqual(b1[w.name], b3[w.name]) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", w.name)
		}
		if o, ok := o1[w.name]; ok {
			if !reflect.DeepEqual(o, o2[w.name]) {
				t.Errorf("%s: seed 7 gave two different oracles", w.name)
			}
			if reflect.DeepEqual(o, o3[w.name]) {
				t.Errorf("%s: seeds 7 and 8 gave the same oracle", w.name)
			}
		}
	}
}

// servedAnswer solves the first cold-exact instance in-process and
// renders the answer as the server would.
func servedAnswer(t *testing.T) (*repro.Tree, optimum, *api.SolveResponse) {
	t.Helper()
	in, err := coldInputsOf(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	body, err := in.body(0)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := treeOf(body)
	if err != nil {
		t.Fatal(err)
	}
	out, err := repro.NewSolver().Solve(context.Background(), tree, repro.WithAlgorithm(repro.BranchBound))
	if err != nil {
		t.Fatal(err)
	}
	opt, err := solveOracle(tree)
	if err != nil {
		t.Fatal(err)
	}
	return tree, opt, api.NewSolveResponse(tree, out, repro.CacheMiss)
}

func TestCheckerRejectsCorruptAnswers(t *testing.T) {
	tree, opt, good := servedAnswer(t)
	if err := checkSolve(tree, opt, good, false); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	clone := func() *api.SolveResponse {
		var r api.SolveResponse
		b, _ := json.Marshal(good)
		json.Unmarshal(b, &r)
		return &r
	}

	r := clone()
	r.Delay *= 1 + 1e-6
	if checkSolve(tree, opt, r, false) == nil {
		t.Error("checker accepted a corrupted delay")
	}

	// Move each CRU in turn to another location until the move changes
	// the delay: that assignment must be rejected.
	places := []string{"host"}
	for _, s := range tree.Satellites() {
		places = append(places, s.Name)
	}
	moved := false
	for name, loc := range good.Assignment {
		for _, to := range places {
			if to == loc {
				continue
			}
			r := clone()
			r.Assignment[name] = to
			a, err := assignmentFromWire(tree, r.Assignment)
			if err != nil {
				continue
			}
			bd, err := repro.Evaluate(tree, a)
			if err != nil || relDiff(bd.Delay, good.Delay) <= tolerance {
				continue
			}
			moved = true
			if checkSolve(tree, opt, r, false) == nil {
				t.Errorf("checker accepted %s moved from %s to %s", name, loc, to)
			}
		}
	}
	if !moved {
		t.Fatal("no single move changes the delay; pick another instance")
	}

	for name := range good.Assignment {
		r := clone()
		delete(r.Assignment, name)
		if checkSolve(tree, opt, r, false) == nil {
			t.Error("checker accepted an assignment missing a CRU")
		}
		r = clone()
		r.Assignment[name] = "nowhere"
		if checkSolve(tree, opt, r, false) == nil {
			t.Error("checker accepted an unknown location")
		}
		break
	}

	r = clone()
	r.Exact, r.Partial, r.LowerBound = false, true, good.Delay*0.9
	if checkSolve(tree, opt, r, false) == nil {
		t.Error("checker accepted a partial answer where an exact one was required")
	}
	if err := checkSolve(tree, opt, r, true); err != nil {
		t.Errorf("checker rejected a partial answer that brackets the optimum: %v", err)
	}
	r.LowerBound = good.Delay * 1.01
	if checkSolve(tree, opt, r, true) == nil {
		t.Error("checker accepted a lower bound above the optimum")
	}
}

// TestPhaseTicketLimit checks that a phase stops at its ticket share,
// sends each ticket once and says that it ran out.
func TestPhaseTicketLimit(t *testing.T) {
	tr := newTracer()
	cs := []*client{{id: 0, tr: tr}, {id: 1, tr: tr}}
	op := func(c *client, ticket int) (any, error) { return nil, nil }
	for _, c := range []struct {
		name                  string
		t                     traffic
		d                     time.Duration
		first, tickets, count int
		exhausted             bool
	}{
		{"closed", traffic{op: op}, time.Minute, 10, 50, 50, true},
		{"open", traffic{rate: 1000, op: op}, time.Second, 0, 20, 20, true},
		{"open, room to spare", traffic{rate: 100, op: op}, 100 * time.Millisecond, 5, 100, 10, false},
	} {
		p := runPhase(c.name, cs, c.t, c.d, c.first, c.tickets)
		seen := map[int]bool{}
		for _, s := range p.samples {
			if s.err != nil || seen[s.ticket] || s.ticket < c.first || s.ticket >= c.first+c.tickets {
				t.Errorf("%s: bad or repeated ticket %d (err %v)", c.name, s.ticket, s.err)
			}
			seen[s.ticket] = true
		}
		if len(p.samples) != c.count || p.next != c.first+c.count || p.exhausted != c.exhausted {
			t.Errorf("%s: %d ops, next %d, exhausted %v; want %d, %d, %v",
				c.name, len(p.samples), p.next, p.exhausted, c.count, c.first+c.count, c.exhausted)
		}
	}
}

// TestPhaseStatsFastQuartile checks that a phase slowed down for under
// three quarters of its windows reports the speed of the rest.
func TestPhaseStatsFastQuartile(t *testing.T) {
	const windows, perWin = 10, 2 * minPerWindow
	p := &phase{name: "closed", wall: windows * time.Second}
	for k := 0; k < windows; k++ {
		lat, cpu := time.Millisecond, time.Millisecond
		if k >= 4 { // the host is slow for six windows in ten
			lat, cpu = 2*time.Millisecond, 3*time.Millisecond/2
		}
		for i := 0; i < perWin; i++ {
			at := time.Duration(k)*time.Second + time.Duration(i)*time.Second/perWin
			p.samples = append(p.samples, sample{at: at, lat: lat})
		}
		prev := p.cpuAt
		if len(prev) == 0 {
			prev = []cpuSample{{}}
		}
		last := prev[len(prev)-1]
		p.cpuAt = append(prev, cpuSample{last.at + time.Second, last.cpu + perWin*cpu})
	}
	st := p.stats()
	if st.windows != windows {
		t.Fatalf("%d windows, want %d", st.windows, windows)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"p50_ms", st.p50, 1}, {"p95_ms", st.p95, 1}, {"cpu_ms_per_op", st.cpuPerOp, 1}, {"ops_per_s", st.opsPerS, perWin},
	} {
		if relDiff(c.got, c.want) > 1e-9 {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if got := p.cpuBetween(500*time.Millisecond, 1500*time.Millisecond); got != perWin*time.Millisecond {
		t.Errorf("CPU between 0.5 s and 1.5 s = %v, want %v", got, perWin*time.Millisecond)
	}
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts fleets and sends traffic")
	}
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			res, err := run(options{workload: w.name, seed: 5, seconds: 2, trace: trace}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			shedOK := raceEnabled && w.name == "warm-solve"
			if !res.Correct || res.Failed != 0 && !shedOK || res.Attempted == 0 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace %d: metric %s = %+v, want unit %s", w.name, trace, d.name, m, d.unit)
				}
				if trace == 0 && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code's workload and
// metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q: %q, the code %q: %q", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the code %s [%s]", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
