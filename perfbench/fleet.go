package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/api"
	"repro/internal/cluster"
	"repro/internal/httpserve"
)

// node is one serving node: httpserve's handler on a loopback listener
// of the benchmark's own, so the tracer can wrap the handler and the
// cluster's forwarding client from outside the program.
type node struct {
	url string
	svc *repro.Service
	srv *httpserve.Server
	hs  *http.Server
}

// fleet is n nodes; with n > 1 they form one ring (no health probes,
// as httpserve.StartFleet runs them by default).
type fleet struct {
	nodes []*node
	wg    sync.WaitGroup
}

func startFleet(n int, tr *tracer) (*fleet, error) {
	urls := make([]string, n)
	lis := make([]net.Listener, n)
	for i := range lis {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, o := range lis[:i] {
				o.Close()
			}
			return nil, fmt.Errorf("fleet listener: %w", err)
		}
		lis[i], urls[i] = l, "http://"+l.Addr().String()
	}
	f := &fleet{}
	for i := range lis {
		cfg := httpserve.Config{Service: repro.NewService(nil, 4096)}
		if n > 1 {
			var peers []string
			for j, u := range urls {
				if j != i {
					peers = append(peers, u)
				}
			}
			cl, err := cluster.New(cluster.Config{
				Self: urls[i], Peers: peers, Epoch: 1,
				Client: &http.Client{Transport: tr.transport(http.DefaultTransport.(*http.Transport).Clone())},
			})
			if err != nil {
				for _, l := range lis[i:] {
					l.Close()
				}
				f.close()
				return nil, err
			}
			cfg.Cluster = cl
		}
		nd := &node{url: urls[i], svc: cfg.Service, srv: httpserve.New(cfg)}
		nd.hs = &http.Server{Handler: tr.handler(nd.srv), ReadHeaderTimeout: 5 * time.Second}
		f.nodes = append(f.nodes, nd)
		f.wg.Add(1)
		go func(l net.Listener) {
			defer f.wg.Done()
			nd.hs.Serve(l)
		}(lis[i])
	}
	return f, nil
}

// close stops every node's job tier and listener and waits for the
// serve loops to return.
func (f *fleet) close() {
	for _, nd := range f.nodes {
		nd.srv.Close()
		nd.hs.Close()
	}
	f.wg.Wait()
}

// vars is the part of a node's /debug/vars document the benchmark reads.
type vars struct {
	Crserve struct {
		Requests map[string]int64 `json:"requests"`
		Search   map[string]int64 `json:"search"`
		Sessions map[string]int64 `json:"sessions"`
		Jobs     jobVars          `json:"jobs"`
		Cluster  struct {
			Stats map[string]int64 `json:"stats"`
		} `json:"cluster"`
	} `json:"crserve"`
}

// jobVars is the job tier's block: its own search counters beside the
// synchronous solves' "search" block.
type jobVars struct {
	QueueDepth  int64 `json:"queue_depth"`
	Explored    int64 `json:"explored"`
	Pruned      int64 `json:"pruned"`
	BoundHits   int64 `json:"bound_hits"`
	BoundMisses int64 `json:"bound_misses"`
}

func (j jobVars) search(key string) int64 {
	return map[string]int64{"explored": j.Explored, "pruned": j.Pruned, "bound_hits": j.BoundHits, "bound_misses": j.BoundMisses}[key]
}

// scrape reads every node's /debug/vars over HTTP.
func (f *fleet) scrape() ([]vars, error) {
	out := make([]vars, len(f.nodes))
	for i, nd := range f.nodes {
		resp, err := http.Get(nd.url + "/debug/vars")
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&out[i])
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decoding /debug/vars: %w", err)
		}
	}
	return out, nil
}

// varsDelta sums one counter's change across nodes between two scrapes.
func varsDelta(before, after []vars, get func(v *vars) int64) int64 {
	var d int64
	for i := range after {
		d += get(&after[i]) - get(&before[i])
	}
	return d
}

func cacheStats(f *fleet) repro.CacheStats {
	var s repro.CacheStats
	for _, nd := range f.nodes {
		st := nd.svc.Stats()
		s.Hits += st.Hits
		s.Misses += st.Misses
		s.Shared += st.Shared
		s.Evictions += st.Evictions
	}
	return s
}

// Trace headers carry the request id and parent span across hops.
const (
	reqHeader    = "X-Perfbench-Req"
	parentHeader = "X-Perfbench-Parent"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started; Due is the scheduled send time of an
// open-loop client request.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Due    int64  `json:"due_ns,omitempty"`
}

// tracer records spans in memory while on. Off, its wrappers pass
// straight through.
type tracer struct {
	base   time.Time
	on     atomic.Bool
	mu     sync.Mutex
	spans  []span
	nextID int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) id() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

type spanKey struct{}

// spanRef is the enclosing span a handler stores in its request context;
// the forwarding transport recovers it as the forward's parent.
type spanRef struct{ req, id int64 }

func headerInt(r *http.Request, name string) int64 {
	v, _ := strconv.ParseInt(r.Header.Get(name), 10, 64)
	return v
}

// handler records an "origin" span for requests from clients and an
// "owner" span for requests a peer forwarded.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		s := span{Name: "origin", Req: headerInt(r, reqHeader), Parent: headerInt(r, parentHeader), ID: t.id(), Start: t.now()}
		if r.Header.Get(api.ForwardedHeader) != "" {
			s.Name = "owner"
		}
		ctx := context.WithValue(r.Context(), spanKey{}, spanRef{s.Req, s.ID})
		h.ServeHTTP(w, r.WithContext(ctx))
		s.End = t.now()
		t.add(s)
	})
}

// transport wraps a cluster's forwarding client: each forward becomes a
// "forward" span, ended when the caller closes the response body.
func (t *tracer) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(r *http.Request) (*http.Response, error) {
		ref, ok := r.Context().Value(spanKey{}).(spanRef)
		if !t.on.Load() || !ok {
			return base.RoundTrip(r)
		}
		s := span{Name: "forward", Req: ref.req, Parent: ref.id, ID: t.id(), Start: t.now()}
		r = r.Clone(r.Context())
		r.Header.Set(reqHeader, strconv.FormatInt(s.Req, 10))
		r.Header.Set(parentHeader, strconv.FormatInt(s.ID, 10))
		resp, err := base.RoundTrip(r)
		if err != nil {
			s.End = t.now()
			t.add(s)
			return nil, err
		}
		resp.Body = &spanBody{ReadCloser: resp.Body, done: func() {
			s.End = t.now()
			t.add(s)
		}}
		return resp, nil
	})
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

type spanBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *spanBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}
