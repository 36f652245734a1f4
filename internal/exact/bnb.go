package exact

import (
	"context"
	"math"

	"repro/internal/boundcache"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/pool"
)

// Options parameterises one branch-and-bound run.
type Options struct {
	// Workers is the search width. 0 and 1 run the plain sequential
	// search on the caller's goroutine; above 1, that many work-stealing
	// workers share one incumbent (see the package comment). The width
	// never changes the returned delay — only the wall time, the
	// explored count and which of several co-optimal assignments is
	// reported.
	Workers int
	// MaxNodes caps the number of search nodes (0 means 1<<22). Above
	// width 1 the cap is enforced in per-worker strides, so the final
	// explored count may overshoot by a few strides per worker.
	MaxNodes int
	// Warm, when non-nil and feasible, joins the baseline seeds, so a
	// near-optimal prior solution (the incremental engine projects the
	// previous revision's outcome onto the mutated tree) makes the very
	// first bound nearly tight and prunes most of the search. The result
	// is still exact — seeding only ever tightens the incumbent, and ties
	// keep the seed itself.
	Warm *model.Assignment
	// OnIncumbent, when set, receives every incumbent improvement with a
	// freshly cloned assignment and the global lower bound. Calls are
	// serialised and strictly decreasing in Delay at every width.
	OnIncumbent func(core.Incumbent)
	// BestEffort returns the incumbent with Result.Partial set — instead
	// of ErrBudget or the context error — when the node budget or the
	// deadline expires. The incumbent is always feasible (the baselines
	// seed it before the search starts).
	BestEffort bool
	// Bounds attaches the bound-memoization cache: proven standalone
	// subtree bounds tighten the pruning bound, proven whole instances
	// return without searching, and the solve's own proofs are recorded
	// for the next one. Purely advisory — the returned delay is unchanged
	// (property-tested), only the explored node count shrinks — so the
	// serving layers exclude it from cache identity. Nil disables
	// memoization and the search is bit-identical to the plain solver.
	Bounds *boundcache.Cache
}

// bnbScratch is the pooled working set of one branch-and-bound (or
// brute-force) run: the partial and incumbent location vectors, the dense
// per-satellite load and pending-floor tables, the DFS stack and its
// extras prefix-maximum, and the per-satellite floor table.
type bnbScratch struct {
	loc, best, seed []model.Location
	loads, pend     []float64
	stack           []int32
	exm             []float64
	floor           []float64
}

var bnbScratches = pool.NewArena(func() *bnbScratch { return new(bnbScratch) })

// frame is the mutable state of a depth-first search: the partial
// location vector, the decision stack, the satellite load table and the
// incremental bound terms. The sequential search owns one; above width
// 1 a frame is also the stealable unit of work, a snapshot taken where a
// branch was forked.
type frame struct {
	loc   []model.Location
	stack []int32
	loads []float64
	// pend[s] is the sum of the per-satellite floors (satFloors) of the
	// stack entries on satellite s, pushed and popped with the stack like
	// forcedRemaining.
	pend []float64
	// exm is the running prefix maximum of the memoized extras over the
	// stack, maintained push-for-push with it; unused when bound
	// memoization is off, leaving the bound hostTime + forced +
	// max_s(loads[s] + pend[s]).
	exm             []float64
	hostTime        float64
	forcedRemaining float64
}

// bnbRun is one depth-first branch-and-bound worker over one subtree
// span: the whole tree for a top-level solve, a single subtree for the
// memoization pre-pass's standalone sub-solves. Runs belonging to one
// sequential solve share the explored/pruned counters, the node budget
// and the pooled scratch vectors.
type bnbRun struct {
	frame
	ctx       context.Context
	c         *model.Compiled
	res       *Result // Explored/Pruned accumulate here
	maxNodes  int
	budgetHit bool
	ctxErr    error

	// extra[p] is subtree p's proven standalone lower bound minus
	// Forced[p] — the part of its future cost the forced-host term
	// cannot see. Nil when bound memoization is off.
	extra []float64
	// floor is the per-satellite floor table of c (see satFloors).
	floor []float64

	best      []model.Location
	bestDelay float64
	spanStart int32
	spanEnd   int32
	onBetter  func(work int) // top level only: publish res.Delay + stream

	// sh is the state shared by the workers of a search wider than 1;
	// nil for the sequential search, which then touches no atomic,
	// mutex or deque. id and est are this worker's deque index and its
	// estimate of the shared explored total.
	sh  *shared
	id  int
	est int64
}

// pushExtra appends extra e to the prefix-maximum stack exm.
func pushExtra(exm []float64, e float64) []float64 {
	if n := len(exm); n > 0 && exm[n-1] > e {
		e = exm[n-1]
	}
	return append(exm, e)
}

func maxLoad(loads []float64) float64 {
	m := 0.0
	for _, v := range loads {
		if v > m {
			m = v
		}
	}
	return m
}

// satFloors fills floor, row p at p·NumSats, with the least (host time +
// load on satellite s) that position p's subtree adds once its parent is
// hosted, not counting the must-host time already in Compiled.Forced. A
// sensor adds its uplink on its own satellite; a sinkable monochromatic
// CRU of colour s adds the better of sinking whole and hosting itself
// above its children's floors (its only non-zero entry); a must-host CRU
// adds its children's rows. Because the final delay H + max_s L_s is at
// least H + L_s for every s, and H + L_s splits additively over
// independent subtrees, the sum of the rows over the decision stack is a
// valid per-satellite bound term. For a monochromatic subtree the floor
// is its exact standalone optimum.
func satFloors(c *model.Compiled, floor []float64) []float64 {
	ns := c.NumSats
	floor = pool.Slice(floor, c.Len()*ns)
	for p := int32(0); p < int32(c.Len()); p++ {
		row := floor[int(p)*ns : int(p+1)*ns]
		if !c.Proc[p] {
			row[c.Sensor[p]] = c.UpComm[p]
			continue
		}
		if c.MustHost[p] {
			for _, ch := range c.Children(p) {
				for s, v := range floor[int(ch)*ns : int(ch+1)*ns] {
					row[s] += v
				}
			}
			continue
		}
		s := c.Colour[p]
		host := c.HostTime[p]
		for _, ch := range c.Children(p) {
			host += floor[int(ch)*ns+int(s)]
		}
		row[s] = math.Min(c.SubSat[p]+c.UpComm[p], host)
	}
	return floor
}

// rootFloor is the floor bound of the whole instance: its must-host time
// plus the largest per-satellite floor of the root.
func rootFloor(c *model.Compiled, floor []float64) float64 {
	ns := c.NumSats
	return c.Forced[c.RootPos] + maxLoad(floor[int(c.RootPos)*ns:int(c.RootPos+1)*ns])
}

// addPend adds sign (+1 or -1) times position p's floor row to pend. A
// sensor's or sinkable CRU's row has one non-zero entry, its colour;
// adding the zeros would not change a bit, so only a must-host row is
// added whole.
func addPend(c *model.Compiled, floor, pend []float64, p int32, sign float64) {
	ns := c.NumSats
	if !c.MustHost[p] {
		s := int(c.Colour[p])
		pend[s] += sign * floor[int(p)*ns+s]
		return
	}
	for s, v := range floor[int(p)*ns : int(p+1)*ns] {
		pend[s] += sign * v
	}
}

// improve records the complete assignment in r.loc, of delay d below
// the incumbent.
func (r *bnbRun) improve(d float64) {
	if r.sh != nil {
		r.sh.improve(r.loc, d)
		return
	}
	r.bestDelay = d
	copy(r.best[r.spanStart:r.spanEnd], r.loc[r.spanStart:r.spanEnd])
	if r.onBetter != nil {
		r.onBetter(r.res.Explored)
	}
}

// dfs is the search recursion: bound, branch on the top CRU of the
// stack, recurse, restore. With extra == nil it is the historical
// sequential solver node for node (the pointer parity tests pin its
// traversal); the memoized extras fold into the bound otherwise. The
// stack uses explicit push/pop discipline (see BruteForce for why
// re-sliced frontier arguments would alias). Above width 1 the bound
// reads the shared incumbent and a worker whose deque runs low forks
// the second branch of a decision instead of searching it in-line.
func (r *bnbRun) dfs() {
	if r.sh != nil {
		if !r.sh.step(r) {
			return
		}
		// Prune against the shared incumbent as of this node.
		r.bestDelay = math.Float64frombits(r.sh.bound.Load())
	} else {
		if r.budgetHit || r.ctxErr != nil {
			return
		}
		r.res.Explored++
		if r.res.Explored > r.maxNodes {
			r.budgetHit = true
			return
		}
		if r.res.Explored&0xff == 0 {
			if err := r.ctx.Err(); err != nil {
				r.ctxErr = err
				return
			}
		}
	}
	c := r.c
	// load is the largest committed satellite load; lower adds to each
	// satellite the floors of the pending subtrees.
	load, lower := 0.0, 0.0
	for s, v := range r.loads {
		if v > load {
			load = v
		}
		if v += r.pend[s]; v > lower {
			lower = v
		}
	}
	if n := len(r.exm); n > 0 && r.exm[n-1] > lower {
		// Some pending subtree is proven to add more delay than any
		// committed satellite carries yet.
		lower = r.exm[n-1]
	}
	if bound := r.hostTime + r.forcedRemaining + lower; bound >= r.bestDelay {
		r.res.Pruned++
		return // cannot beat the incumbent
	}
	if len(r.stack) == 0 {
		// Complete assignment; the committed terms are now exact.
		if d := r.hostTime + load; d < r.bestDelay {
			r.improve(d)
		}
		return
	}
	p := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	if r.extra != nil {
		r.exm = r.exm[:len(r.exm)-1]
	}
	r.forcedRemaining -= c.Forced[p]
	addPend(c, r.floor, r.pend, p, -1)
	if !c.Proc[p] {
		// Sensor whose parent is hosted (sensors under sunk subtrees
		// are never on the stack): the raw frame crosses the uplink.
		r.loads[c.Sensor[p]] += c.UpComm[p]
		r.dfs()
		r.loads[c.Sensor[p]] -= c.UpComm[p]
	} else {
		sat := c.Colour[p]
		onSat := model.OnSatellite(sat) // hoisted: keeps sink() inlinable
		kids := c.Children(p)
		sink := func() {
			delta := c.SubSat[p] + c.UpComm[p]
			r.loads[sat] += delta
			c.FillSpan(r.loc, p, onSat)
			r.dfs()
			c.FillSpan(r.loc, p, model.Host)
			r.loads[sat] -= delta
		}
		host := func() {
			r.hostTime += c.HostTime[p]
			r.loc[p] = model.Host
			r.stack = append(r.stack, kids...)
			// Children re-enter the forced estimate individually.
			for _, ch := range kids {
				r.forcedRemaining += c.Forced[ch]
				addPend(c, r.floor, r.pend, ch, 1)
			}
			if r.extra != nil {
				for _, ch := range kids {
					r.exm = pushExtra(r.exm, r.extra[ch])
				}
			}
			r.dfs()
			for _, ch := range kids {
				r.forcedRemaining -= c.Forced[ch]
				addPend(c, r.floor, r.pend, ch, -1)
			}
			r.stack = r.stack[:len(r.stack)-len(kids)]
			if r.extra != nil {
				r.exm = r.exm[:len(r.exm)-len(kids)]
			}
			r.hostTime -= c.HostTime[p]
		}
		if sat == model.NoSatellite || p == c.RootPos {
			host()
		} else {
			// Explore the branch with the smaller immediate objective
			// increase first so strong incumbents appear early. Above
			// width 1 the second branch may go to a peer instead.
			sinkFirst := math.Max(load, r.loads[sat]+c.SubSat[p]+c.UpComm[p])-load <= c.HostTime[p]
			split := r.sh != nil && r.split(p, sinkFirst)
			if sinkFirst {
				sink()
				if !split {
					host()
				}
			} else {
				host()
				if !split {
					sink()
				}
			}
		}
	}
	// Restore for the caller. Not deferred: a deferred closure per node
	// is a measurable share of this path.
	r.stack = append(r.stack, p)
	if r.extra != nil {
		r.exm = pushExtra(r.exm, r.extra[p])
	}
	r.forcedRemaining += c.Forced[p]
	addPend(c, r.floor, r.pend, p, 1)
}

// BranchAndBound is the branch-and-bound search the paper's §6 proposes
// as future work, implemented over the same decision tree as BruteForce
// (host vs. sink-whole-subtree per monochromatic CRU) with three
// prunings:
//
//   - bound: partial host time + the host time of undecided CRUs that
//     can never leave the host + the largest, over satellites s, of s's
//     committed load plus the per-satellite floors (satFloors) of the
//     undecided subtrees is a lower bound on any completion, so branches
//     at or above the incumbent are cut — the floors add each pending
//     sensor uplink and each pending monochromatic subtree's least
//     standalone cost to the satellite it loads;
//   - seeding: the incumbent starts at the better of all-host and maximal
//     distribution (and the warm hint) rather than +∞;
//   - ordering: at each CRU the branch with the smaller immediate
//     objective increase is explored first, so good incumbents appear
//     early.
//
// The search runs entirely against the tree's compiled plan: the
// must-host bounds table (Compiled.Forced) is indexed by post-order
// position and precomputed per revision, subtree sinks are span fills
// over the flat location vector, satellite loads and the per-satellite
// floor table live in dense pooled arrays, and incumbents are evaluated
// with the flat kernel — the hot loop performs no allocation and no
// pointer chasing. BranchAndBoundPointer is
// the original node-walking implementation, retained for parity tests.
//
// A fourth, optional pruning is bound memoization (Options.Bounds):
// proven standalone lower bounds of whole subtrees, keyed by their
// Merkle hashes, join the bound as per-stack-entry extras, and subtrees
// whose hashes were proven in a previous solve are not searched at all.
//
// Options.Workers sets the width: at 1 the search runs on the caller's
// goroutine; wider searches split it across work-stealing workers. The
// context is polled every 256 search nodes; on cancellation the returned
// error is the context's.
func BranchAndBound(ctx context.Context, t *model.Tree, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	maxNodes := core.IntOr(opts.MaxNodes, 1<<22)
	c := model.Compile(t)
	n := c.Len()
	res := &Result{Delay: math.Inf(1)}

	sc := bnbScratches.Get()
	defer bnbScratches.Put(sc)
	sc.floor = satFloors(c, sc.floor)

	// The memoization pre-pass runs first: a complete entry for the whole
	// instance short-circuits the solve, and the per-subtree extras it
	// proves (or replays from previous solves) arm the bound below.
	var seed *boundSeed
	if opts.Bounds != nil {
		seed = prepareBounds(ctx, t, opts.Bounds, maxNodes, sc)
		res.Explored = seed.Explored
		res.Pruned = seed.Pruned
		res.BoundHits, res.BoundMisses = seed.Hits, seed.Misses
		if e := seed.RootEntry; e != nil {
			return rootHitResult(t, c, e, res, opts.OnIncumbent), nil
		}
	}

	fr := eval.GetFrame()
	defer eval.PutFrame(fr)
	sc.loc = pool.Keep(sc.loc, n)
	sc.best = pool.Keep(sc.best, n)
	sc.seed = pool.Keep(sc.seed, n)
	sc.loads = pool.Slice(sc.loads, c.NumSats)
	sc.pend = pool.Slice(sc.pend, c.NumSats)

	run := &bnbRun{
		frame: frame{loc: sc.loc, loads: sc.loads, pend: sc.pend},
		ctx:   ctx, c: c, res: res, maxNodes: maxNodes, floor: sc.floor,
		best: sc.best, bestDelay: math.Inf(1), spanStart: 0, spanEnd: int32(n),
	}

	// The root's floor — the must-host time plus the largest
	// per-satellite floor (satFloors) — is a cheap valid lower bound on
	// every completion, which is what anytime consumers need to report a
	// gap. It is never wrong; the memoized pre-pass may tighten it, and a
	// completed search replaces it with the proven optimum.
	globalLB := rootFloor(c, sc.floor)
	if seed != nil {
		run.extra = seed.Extra
		if seed.RootLB > globalLB {
			globalLB = seed.RootLB
		}
		run.budgetHit = seed.BudgetHit
		run.ctxErr = seed.Err
	}
	res.LowerBound = globalLB
	// stream clones the incumbent out to the callback. sc.best is pooled
	// scratch, so the callback gets a fresh Assignment it may keep.
	stream := func(work int) {
		if opts.OnIncumbent == nil {
			return
		}
		asg := model.NewAssignment(t)
		c.StoreAssignment(asg, sc.best)
		opts.OnIncumbent(core.Incumbent{
			Assignment: asg,
			Delay:      res.Delay,
			LowerBound: globalLB,
			Work:       work,
		})
	}

	// Seed the incumbent with the better of the two trivial baselines —
	// and the warm hint, when one is offered — so pruning bites from the
	// first branches.
	improve := func(loc []model.Location) {
		if d := eval.FlatDelay(c, loc, fr); d < run.bestDelay {
			run.bestDelay = d
			res.Delay = d
			copy(sc.best, loc)
			stream(res.Explored)
		}
	}
	c.TopmostLocations(sc.seed)
	improve(sc.seed)
	c.BaseLocations(sc.seed)
	improve(sc.seed)
	if opts.Warm != nil && opts.Warm.Validate(t) == nil {
		c.LoadLocations(sc.seed, opts.Warm)
		improve(sc.seed)
	}

	c.BaseLocations(sc.loc)
	run.forcedRemaining = c.Forced[c.RootPos]
	addPend(c, sc.floor, run.pend, c.RootPos, 1)
	run.stack = append(sc.stack[:0], c.RootPos)
	if run.extra != nil {
		run.exm = append(sc.exm[:0], run.extra[c.RootPos])
	}
	run.onBetter = func(work int) {
		res.Delay = run.bestDelay
		stream(work)
	}
	if opts.Workers > 1 {
		searchWide(run, opts.Workers)
	} else {
		run.dfs()
	}
	sc.stack = run.stack[:0]
	if run.exm != nil {
		sc.exm = run.exm[:0]
	}
	if math.IsInf(res.Delay, 1) {
		// Cannot happen for valid trees (all-host is always feasible).
		if run.ctxErr != nil {
			return nil, run.ctxErr
		}
		return nil, ErrBudget
	}
	switch {
	case run.ctxErr != nil:
		if !opts.BestEffort {
			return nil, run.ctxErr
		}
		res.Partial = true
	case run.budgetHit:
		if !opts.BestEffort {
			return nil, ErrBudget
		}
		res.Partial = true
	default:
		// The search completed: the incumbent is the proven optimum.
		// Record it so the next solve of this exact instance — any
		// session revision or corpus member with the same Merkle root —
		// is a lookup instead of a search.
		res.LowerBound = res.Delay
		if seed != nil {
			seed.recordRoot(opts.Bounds, c, sc.best, res.Delay)
		}
	}
	asg := model.NewAssignment(t)
	c.StoreAssignment(asg, sc.best)
	res.Assignment = asg
	return res, nil
}

// rootHitResult materialises a solve whose whole instance was already
// proven: the cached optimal pattern is replayed onto a fresh
// assignment, no search node is explored, and anytime consumers still
// observe one (final) incumbent.
func rootHitResult(t *model.Tree, c *model.Compiled, e *boundcache.Entry, res *Result, onInc func(core.Incumbent)) *Result {
	res.Delay = e.LB
	res.LowerBound = e.LB
	loc := make([]model.Location, c.Len())
	c.BaseLocations(loc)
	applyPattern(c, loc, c.RootPos, e.Pattern)
	asg := model.NewAssignment(t)
	c.StoreAssignment(asg, loc)
	res.Assignment = asg
	if onInc != nil {
		inc := model.NewAssignment(t)
		c.StoreAssignment(inc, loc)
		onInc(core.Incumbent{
			Assignment: inc,
			Delay:      res.Delay,
			LowerBound: res.LowerBound,
			Work:       res.Explored,
		})
	}
	return res
}
