package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
)

// opTimeout bounds one op, however many HTTP calls it makes.
const opTimeout = 10 * time.Second

// shedAfter is how late an open-loop ticket may start before the pacer
// sheds it (counted as failed) instead of piling more onto a backlog.
const shedAfter = time.Second

// client is one load-generating worker with its own single connection
// to one node, so a run never holds more than workers connections.
type client struct {
	id   int
	base string
	hc   *http.Client
	tr   *tracer
	ctx  context.Context
	// req and span identify the current op in the trace.
	req, span int64
	inflight  *atomic.Int64
	maxIn     *atomic.Int64
}

func newClients(n int, f *fleet, tr *tracer) []*client {
	var inflight, maxIn atomic.Int64
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{
			id:   i,
			base: f.nodes[i%len(f.nodes)].url,
			hc: &http.Client{Transport: &http.Transport{
				MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
			}},
			tr: tr, inflight: &inflight, maxIn: &maxIn,
		}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.hc.CloseIdleConnections()
	}
}

// call issues one request and returns the response body of a 200; any
// transport error or other status is an error.
func (c *client) call(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(c.ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.tr.on.Load() {
		req.Header.Set(reqHeader, strconv.FormatInt(c.req, 10))
		req.Header.Set(parentHeader, strconv.FormatInt(c.span, 10))
	}
	n := c.inflight.Add(1)
	for {
		m := c.maxIn.Load()
		if n <= m || c.maxIn.CompareAndSwap(m, n) {
			break
		}
	}
	defer c.inflight.Add(-1)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: HTTP %d: %.200s", method, path, resp.StatusCode, out)
	}
	return out, nil
}

// reqID is a ticket's request id in the trace; 0 marks calls that
// belong to no op.
func reqID(ticket int) int64 { return int64(ticket) + 1 }

// opFunc performs ticket's op on c. It returns a record of the answer,
// checked after the phase, or an error for a failed op.
type opFunc func(c *client, ticket int) (any, error)

// sample is one op as the loop saw it. Latency runs from the due time
// (or the send time, see runPhase) in an open loop and from the send
// time in a closed one.
type sample struct {
	ticket int
	at     time.Duration // due time, from the start of the phase
	lat    time.Duration
	late   time.Duration
	shed   bool
	err    error
	rec    any
	kind   string               // request class, for per-class layer metrics
	served []*api.SolveResponse // answers, decoded by the workload's check
	wrong  error                // set by the workload's check
}

// phase is one measured stretch of traffic.
type phase struct {
	name  string
	open  bool
	limit time.Duration // open loop: latency limit for goodput
	wall  time.Duration
	// cpuAt samples the process CPU time about every cpuTick, from the
	// start of the phase to its end.
	cpuAt   []cpuSample
	samples []sample
	next    int // first ticket the phase left unused
	// exhausted reports that the phase ran out of tickets before its time
	// was up; its rates are then over the time it ran.
	exhausted bool

	// Runtime MemStats deltas over the phase.
	gcs                 uint32
	gcPause             time.Duration
	allocBytes, mallocs uint64
}

// traffic is what one phase sends: open loop at rate ops/s when rate >
// 0, else closed loop.
type traffic struct {
	rate  float64
	limit time.Duration // open loop: latency limit for goodput
	op    opFunc
}

// runPhase drives t from every client for d, or until it has used
// tickets tickets (0 = no limit). Tickets are numbered from first; the
// returned phase's next is the first ticket it left unused.
func runPhase(name string, cs []*client, t traffic, d time.Duration, first, tickets int) *phase {
	p := &phase{name: name, open: t.rate > 0, limit: t.limit}
	n := int(t.rate * d.Seconds())
	if tickets > 0 && p.open && n > tickets {
		n, p.exhausted = tickets, true
	}
	var next atomic.Int64
	var exhausted atomic.Bool
	per := make([][]sample, len(cs))
	var wg sync.WaitGroup
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	end := start.Add(d)
	p.cpuAt = []cpuSample{{}}
	stopCPU, cpuDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(cpuDone)
		tick := time.NewTicker(cpuTick)
		defer tick.Stop()
		for {
			select {
			case <-stopCPU:
				return
			case <-tick.C:
				p.cpuAt = append(p.cpuAt, cpuSample{time.Since(start), cpuTime() - cpu0})
			}
		}
	}()
	for w, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				var due time.Time
				if p.open {
					if i >= n {
						return
					}
					due = start.Add(time.Duration(float64(i) / t.rate * float64(time.Second)))
				} else if time.Now().After(end) {
					return
				} else if tickets > 0 && i >= tickets {
					exhausted.Store(true)
					return
				}
				// Latency runs from the due time when the ticket was
				// already due on pickup: the wait behind earlier requests
				// is the system's. A ticket picked up early waits on the
				// timer, whose overshoot (about 1 ms for short sleeps) is
				// the generator's and shows in late, not in latency.
				sent, from := time.Now(), due
				if wait := due.Sub(sent); p.open && wait > 0 {
					time.Sleep(wait)
					sent = time.Now()
					from = sent
				} else if !p.open {
					due, from = sent, sent
				}
				s := sample{ticket: first + i, at: due.Sub(start), late: sent.Sub(due)}
				if s.late > shedAfter {
					s.shed, s.err = true, fmt.Errorf("shed: %v late", s.late)
					per[w] = append(per[w], s)
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				c.ctx = ctx
				traced := c.tr.on.Load()
				if traced {
					c.req, c.span = reqID(s.ticket), c.tr.id()
				}
				s.rec, s.err = t.op(c, s.ticket)
				cancel()
				done := time.Now()
				s.lat = done.Sub(from)
				if traced {
					c.tr.add(span{Name: "client", Req: c.req, ID: c.span,
						Start: int64(sent.Sub(c.tr.base)), End: int64(done.Sub(c.tr.base)), Due: int64(due.Sub(c.tr.base))})
				}
				per[w] = append(per[w], s)
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	close(stopCPU)
	<-cpuDone
	p.exhausted = p.exhausted || exhausted.Load()
	p.cpuAt = append(p.cpuAt, cpuSample{p.wall, cpuTime() - cpu0})
	runtime.ReadMemStats(&ms1)
	p.gcs = ms1.NumGC - ms0.NumGC
	p.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	used := int(next.Load()) // each client drew one ticket past the end
	if p.open {
		used = min(used, n)
	} else if tickets > 0 {
		used = min(used, tickets)
	}
	p.next = first + used
	for _, s := range per {
		p.samples = append(p.samples, s...)
	}
	return p
}

// The shared host a run meets switches between speeds about 40% apart
// for seconds at a time (a fixed CPU loop timed second by second for a
// minute read 4.5M iterations per second in stretches of up to 8 s and
// 7-8M between them), and such interference only ever slows the
// program down. So the phase is cut into windows of
// equal time, each metric is taken per window, and the phase reports
// the fast quartile over its windows: the first for latencies and CPU,
// the third for throughput. A run whose host is slow for under three
// quarters of it reads the same as one the host left alone.
const (
	// minPerWindow is the fewest correct ops a window holds, so its p95
	// has at least ten ops beyond it; a phase with fewer is one window.
	minPerWindow = 200
	// minWindow is the shortest window.
	minWindow = time.Second
	// fastQuartile is the quantile over windows reported for a
	// lower-is-better metric; 1-fastQuartile for a higher-is-better one.
	fastQuartile = 0.25
	// cpuTick is how often a phase samples the process CPU time.
	cpuTick = 100 * time.Millisecond
)

// phaseStats summarises a checked phase.
type phaseStats struct {
	attempted, failed, shed int
	lat, late               []float64 // ms; lat over correct ops only
	p50, p95, p99           float64   // ms; fast quartiles of the per-window percentiles
	windows                 int
	opsPerS                 float64 // fast quartile of the per-window goodput rates
	cpuPerOp                float64 // ms; fast quartile of the per-window CPU per correct op
}

func (p *phase) stats() phaseStats {
	var st phaseStats
	st.attempted = len(p.samples)
	var ok []sample
	for _, s := range p.samples {
		st.late = append(st.late, ms(s.late))
		if s.err != nil || s.wrong != nil {
			st.failed++
			if s.shed {
				st.shed++
			}
			continue
		}
		ok = append(ok, s)
		st.lat = append(st.lat, ms(s.lat))
	}
	if len(ok) == 0 || p.wall <= 0 {
		return st
	}

	// Windows of equal time, each op in the one its due (closed loop:
	// send) time falls in; the last window also takes the ops still
	// finishing after the phase's traffic stopped.
	st.windows = max(1, min(len(ok)/minPerWindow, int(p.wall/minWindow)))
	w := p.wall / time.Duration(st.windows)
	byWin := make([][]sample, st.windows)
	for _, s := range ok {
		k := min(int(s.at/w), st.windows-1)
		byWin[k] = append(byWin[k], s)
	}
	var p50s, p95s, p99s, rates, cpus []float64
	for k, win := range byWin {
		if len(win) == 0 {
			continue
		}
		var lat []float64
		good := 0
		for _, s := range win {
			lat = append(lat, ms(s.lat))
			if !p.open || s.lat <= p.limit {
				good++
			}
		}
		p50s, p95s, p99s = append(p50s, quantile(lat, 0.5)), append(p95s, quantile(lat, 0.95)), append(p99s, quantile(lat, 0.99))
		from, to := time.Duration(k)*w, time.Duration(k+1)*w
		if k == st.windows-1 {
			to = p.wall
		}
		rates = append(rates, float64(good)/(to-from).Seconds())
		cpus = append(cpus, ms(p.cpuBetween(from, to))/float64(len(win)))
	}
	st.p50, st.p95, st.p99 = quantile(p50s, fastQuartile), quantile(p95s, fastQuartile), quantile(p99s, fastQuartile)
	st.opsPerS = quantile(rates, 1-fastQuartile)
	st.cpuPerOp = quantile(cpus, fastQuartile)
	return st
}

// cpuSample is the CPU time the process had spent by offset at.
type cpuSample struct{ at, cpu time.Duration }

// cpuBetween is the process CPU time spent between from and to, offsets
// from the start of the phase, interpolated between the samples.
func (p *phase) cpuBetween(from, to time.Duration) time.Duration {
	return p.cpuTimeAt(to) - p.cpuTimeAt(from)
}

func (p *phase) cpuTimeAt(t time.Duration) time.Duration {
	k := sort.Search(len(p.cpuAt), func(i int) bool { return p.cpuAt[i].at >= t })
	if k == len(p.cpuAt) {
		return p.cpuAt[k-1].cpu
	}
	if k == 0 {
		return p.cpuAt[0].cpu
	}
	a, b := p.cpuAt[k-1], p.cpuAt[k]
	return a.cpu + time.Duration(float64(b.cpu-a.cpu)*float64(t-a.at)/float64(b.at-a.at))
}
