package exact

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/pool"
)

// framePool keeps frames on per-P striped free lists so fork/release
// cycles allocate nothing in steady state even with every core forking.
var framePool = pool.NewStriped(func() *frame { return new(frame) })

const (
	// lowWater: a worker forks the second branch of a decision onto its
	// deque only while the deque is shorter than this, so steady-state
	// search runs the plain recursion with no synchronisation.
	lowWater = 4
	// exploredStride is how many nodes a worker explores between flushes
	// of its local counter into the shared budget counter.
	exploredStride = 64
	// ctxStride is how many nodes a worker explores between context
	// polls (the sequential search's &0xff cadence).
	ctxStride = 256
)

// shared is the state the workers of one search wider than 1 share.
type shared struct {
	top *bnbRun // owns the incumbent storage and the anytime stream

	// bound is the incumbent delay as IEEE-754 bits, tightened by CAS.
	// Every worker prunes against it at every node, so an improvement on
	// one core cuts the search on all of them within a few instructions.
	bound    atomic.Uint64
	explored atomic.Int64
	maxNodes int64

	stop      atomic.Bool
	budgetHit atomic.Bool
	errMu     sync.Mutex
	err       error // first context error, under errMu

	// incMu serialises incumbent storage and streaming: the CAS above
	// makes pruning fast, this mutex makes the best assignment and the
	// OnIncumbent stream consistent and strictly improving.
	incMu sync.Mutex

	// Deques of stealable frames, one per worker, all under one mutex:
	// owners pop their own tail (depth-first order), thieves take a
	// victim's head (the largest remaining subtrees). Frames are rare —
	// they exist only while some deque is near-empty — so one lock is
	// cheaper than per-deque protocols and makes the empty+pending==0
	// termination test race-free.
	mu      sync.Mutex
	cond    *sync.Cond
	deques  [][]*frame
	pending int          // frames queued or being searched, under mu
	queued  atomic.Int64 // frames queued, for the fork heuristic
	dlen    []atomic.Int32
	maxLive int64
}

// worker is one search goroutine's state. Its counters and frame are
// written at every node, so the padding keeps the next worker's off the
// same cache line.
type worker struct {
	bnbRun
	res Result
	_   [64]byte
}

// searchWide runs top's search across width work-stealing workers. Each
// worker runs the depth-first search over its current frame, forking
// the second branch of a decision onto its own deque whenever the deque
// runs dry; idle workers steal the oldest (largest-subtree) frame from a
// victim. The workers prune against one shared incumbent, so the
// completed search returns the same optimal delay as the sequential one.
func searchWide(top *bnbRun, width int) {
	s := &shared{
		top:      top,
		maxNodes: int64(top.maxNodes),
		deques:   make([][]*frame, width),
		dlen:     make([]atomic.Int32, width),
		maxLive:  int64(64 * width),
	}
	s.cond = sync.NewCond(&s.mu)
	s.bound.Store(math.Float64bits(top.bestDelay))
	s.explored.Store(int64(top.res.Explored))
	s.stop.Store(top.budgetHit || top.ctxErr != nil)

	// The root frame is the whole search.
	s.pending = 1
	s.deques[0] = append(s.deques[0], s.fork(&top.frame))
	s.dlen[0].Add(1)
	s.queued.Add(1)

	workers := make([]worker, width)
	var wg sync.WaitGroup
	for i := range workers {
		w := &workers[i]
		w.bnbRun = bnbRun{ctx: top.ctx, c: top.c, res: &w.res, extra: top.extra, floor: top.floor, sh: s, id: i}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.run(&w.bnbRun)
		}()
	}
	wg.Wait()
	// A halted run leaves unexplored frames behind; recycle them.
	for _, d := range s.deques {
		for _, f := range d {
			framePool.Put(f)
		}
	}

	top.res.Explored = int(s.explored.Load())
	for i := range workers {
		top.res.Pruned += workers[i].res.Pruned
	}
	top.budgetHit = top.budgetHit || s.budgetHit.Load()
	if top.ctxErr == nil {
		top.ctxErr = s.err
	}
}

// improve publishes a complete assignment of delay d: the atomic bound is
// tightened first so every worker prunes against d immediately, then the
// assignment is stored and streamed under incMu. Losing a CAS race to a
// better delay abandons the publish — the better solution is already (or
// about to be) stored by its finder.
func (s *shared) improve(loc []model.Location, d float64) {
	for {
		cur := s.bound.Load()
		if d >= math.Float64frombits(cur) {
			return
		}
		if s.bound.CompareAndSwap(cur, math.Float64bits(d)) {
			break
		}
	}
	s.incMu.Lock()
	if t := s.top; d < t.bestDelay {
		t.bestDelay = d
		copy(t.best, loc)
		t.onBetter(int(s.explored.Load()))
	}
	s.incMu.Unlock()
}

// halt asks every worker to unwind: the first context error wins, later
// ones (and budget halts, which pass nil) keep it. The broadcast happens
// with mu held so a thief between its stop check and cond.Wait cannot
// miss the wakeup.
func (s *shared) halt(err error) {
	if err != nil {
		s.errMu.Lock()
		if s.err == nil {
			s.err = err
		}
		s.errMu.Unlock()
	}
	s.mu.Lock()
	s.stop.Store(true)
	s.cond.Broadcast()
	s.mu.Unlock()
}

// step performs worker w's per-node accounting: the shared explored
// counter is flushed every exploredStride nodes and the context polled
// every ctxStride, while the budget is tested every node against the
// worker's running estimate (shared total at the last flush plus local
// nodes since) — at most a stride per peer stale. It reports whether the
// search may continue.
func (s *shared) step(w *bnbRun) bool {
	w.res.Explored++
	w.est++
	if n := w.res.Explored; n&(exploredStride-1) == 0 {
		w.est = s.explored.Add(exploredStride)
		if n&(ctxStride-1) == 0 {
			if err := w.ctx.Err(); err != nil {
				s.halt(err)
				return false
			}
		}
	}
	if w.est > s.maxNodes {
		s.budgetHit.Store(true)
		s.halt(nil)
		return false
	}
	return !s.stop.Load()
}

// fork snapshots f into a fresh pooled frame.
func (s *shared) fork(f *frame) *frame {
	nf := framePool.Get()
	nf.loc = append(nf.loc[:0], f.loc...)
	nf.stack = append(nf.stack[:0], f.stack...)
	nf.loads = append(nf.loads[:0], f.loads...)
	nf.pend = append(nf.pend[:0], f.pend...)
	nf.exm = append(nf.exm[:0], f.exm...)
	nf.hostTime = f.hostTime
	nf.forcedRemaining = f.forcedRemaining
	return nf
}

// split publishes the second branch of the decision on CRU p as a
// stealable frame when this worker's deque runs low, and reports whether
// it did. The snapshot captures the state a recursive entry into that
// branch would see — dfs's host or sink set-up applied to a copy — so
// its consumer starts with the same bound test.
func (r *bnbRun) split(p int32, sinkFirst bool) bool {
	if !r.sh.shouldSplit(r.id) {
		return false
	}
	c := r.c
	nf := r.sh.fork(&r.frame)
	if sinkFirst {
		kids := c.Children(p)
		nf.hostTime += c.HostTime[p]
		nf.loc[p] = model.Host
		nf.stack = append(nf.stack, kids...)
		for _, ch := range kids {
			nf.forcedRemaining += c.Forced[ch]
			addPend(c, r.floor, nf.pend, ch, 1)
		}
		if r.extra != nil {
			for _, ch := range kids {
				nf.exm = pushExtra(nf.exm, r.extra[ch])
			}
		}
	} else {
		sat := c.Colour[p]
		nf.loads[sat] += c.SubSat[p] + c.UpComm[p]
		c.FillSpan(nf.loc, p, model.OnSatellite(sat))
	}
	r.sh.push(r.id, nf)
	return true
}

// shouldSplit decides whether to fork the second branch of the current
// decision: only while the worker's own deque is hungry and the global
// frame population is bounded, so deep searches do not snapshot the state
// at every node.
func (s *shared) shouldSplit(id int) bool {
	return int(s.dlen[id].Load()) < lowWater && s.queued.Load() < s.maxLive
}

func (s *shared) push(id int, f *frame) {
	s.mu.Lock()
	s.pending++
	s.deques[id] = append(s.deques[id], f)
	s.dlen[id].Add(1)
	s.queued.Add(1)
	s.cond.Signal()
	s.mu.Unlock()
}

// take returns the next frame for worker id — its own newest frame, else
// the oldest frame of the first non-empty victim — or nil when the search
// is over (every frame fully explored, or a stop was requested).
func (s *shared) take(id int) *frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stop.Load() {
			return nil
		}
		if d := s.deques[id]; len(d) > 0 {
			f := d[len(d)-1]
			d[len(d)-1] = nil
			s.deques[id] = d[:len(d)-1]
			s.dlen[id].Add(-1)
			s.queued.Add(-1)
			return f
		}
		for i := 1; i < len(s.deques); i++ {
			v := (id + i) % len(s.deques)
			if d := s.deques[v]; len(d) > 0 {
				f := d[0]
				copy(d, d[1:])
				d[len(d)-1] = nil
				s.deques[v] = d[:len(d)-1]
				s.dlen[v].Add(-1)
				s.queued.Add(-1)
				return f
			}
		}
		if s.pending == 0 {
			return nil
		}
		s.cond.Wait()
	}
}

// release retires a fully searched frame. The last release wakes every
// waiting thief so they can observe termination.
func (s *shared) release(f *frame) {
	framePool.Put(f)
	s.mu.Lock()
	s.pending--
	if s.pending == 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
}

// run is worker w's loop: take a frame, search it to exhaustion (forking
// branches for hungry peers along the way), repeat.
func (s *shared) run(w *bnbRun) {
	for {
		f := s.take(w.id)
		if f == nil {
			break
		}
		w.frame = *f
		w.dfs()
		*f = w.frame // keep any slice growth with the pooled frame
		s.release(f)
	}
	if r := int64(w.res.Explored) & (exploredStride - 1); r != 0 {
		s.explored.Add(r)
	}
}
