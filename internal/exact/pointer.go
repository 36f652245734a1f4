package exact

import (
	"context"
	"math"

	"repro/internal/colouring"
	"repro/internal/eval"
	"repro/internal/model"
)

// BranchAndBoundPointer is the original pointer-walking branch-and-bound:
// per-solve bounds tables built by tree traversal, satellite loads in a
// map, subtree placement by stack walks and incumbents evaluated through
// the pointer evaluator. It is retained as the reference implementation
// the compiled search is parity-tested against (identical incumbents,
// identical node counts) and as the baseline of
// BenchmarkCompiledVsPointer. Semantics match BranchAndBound at width 1
// with Options.Warm exactly.
func BranchAndBoundPointer(ctx context.Context, t *model.Tree, maxNodes int, warm *model.Assignment) (*Result, error) {
	if maxNodes <= 0 {
		maxNodes = 1 << 22
	}
	an := colouring.Analyse(t)
	res := &Result{Delay: math.Inf(1)}

	// forcedSub[v] = Σ h over the multi-colour CRUs in v's subtree: they
	// can never leave the host, so their host time is a certain future
	// cost as long as v is undecided.
	forcedSub := make([]float64, t.Len())
	for _, id := range t.Postorder() {
		n := t.Node(id)
		if n.Kind != model.Processing {
			continue
		}
		if _, mono := t.CorrespondentSatellite(id); !mono || id == t.Root() {
			forcedSub[id] = n.HostTime
		}
		for _, c := range n.Children {
			forcedSub[id] += forcedSub[c]
		}
	}

	// floorSub[v][s] = the least (host time + load on s) v's subtree adds
	// once its parent is hosted, beyond forcedSub: a sensor's uplink on
	// its satellite, the better of sinking and hosting a sinkable CRU,
	// and the sum of a must-host CRU's children's maps.
	floorSub := make([]map[model.SatelliteID]float64, t.Len())
	for _, id := range t.Postorder() {
		n := t.Node(id)
		row := map[model.SatelliteID]float64{}
		switch {
		case n.Kind == model.SensorKind:
			row[n.Satellite] = n.UpComm
		case an.MustHost(id):
			for _, c := range n.Children {
				for s, v := range floorSub[c] {
					row[s] += v
				}
			}
		default:
			sat, _ := t.CorrespondentSatellite(id)
			host := n.HostTime
			for _, c := range n.Children {
				host += floorSub[c][sat]
			}
			row[sat] = math.Min(t.SubtreeSatTime(id)+n.UpComm, host)
		}
		floorSub[id] = row
	}

	seeds := []*model.Assignment{an.FeasibleTopmost(), model.NewAssignment(t)}
	if warm != nil {
		seeds = append(seeds, warm.Clone())
	}
	for _, seed := range seeds {
		if seed.Validate(t) != nil {
			continue
		}
		if d := eval.PointerDelay(t, seed); d < res.Delay {
			res.Delay = d
			res.Assignment = seed
		}
	}

	asg := model.NewAssignment(t)
	loads := map[model.SatelliteID]float64{}
	pend := map[model.SatelliteID]float64{} // Σ floorSub over the stack
	var hostTime float64
	var forcedRemaining = forcedSub[t.Root()]
	budgetHit := false
	var ctxErr error

	maxLoad := func() float64 {
		m := 0.0
		for _, v := range loads {
			if v > m {
				m = v
			}
		}
		return m
	}

	pushPend := func(id model.NodeID) {
		for s, v := range floorSub[id] {
			pend[s] += v
		}
	}
	popPend := func(id model.NodeID) {
		for s, v := range floorSub[id] {
			pend[s] -= v
		}
	}
	maxLoadPend := func() float64 {
		m := 0.0
		for _, sat := range t.Satellites() {
			if v := loads[sat.ID] + pend[sat.ID]; v > m {
				m = v
			}
		}
		return m
	}

	stack := []model.NodeID{t.Root()}
	pushPend(t.Root())
	var rec func()
	rec = func() {
		if budgetHit || ctxErr != nil {
			return
		}
		res.Explored++
		if res.Explored > maxNodes {
			budgetHit = true
			return
		}
		if res.Explored&0xff == 0 {
			if err := ctx.Err(); err != nil {
				ctxErr = err
				return
			}
		}
		bound := hostTime + forcedRemaining + maxLoadPend()
		if bound >= res.Delay {
			return
		}
		if len(stack) == 0 {
			if d := hostTime + maxLoad(); d < res.Delay {
				res.Delay = d
				res.Assignment = asg.Clone()
			}
			return
		}
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		forcedRemaining -= forcedSub[id]
		popPend(id)
		defer func() {
			stack = append(stack, id)
			forcedRemaining += forcedSub[id]
			pushPend(id)
		}()
		n := t.Node(id)

		if n.Kind == model.SensorKind {
			loads[n.Satellite] += n.UpComm
			rec()
			loads[n.Satellite] -= n.UpComm
			return
		}

		sat, sinkable := t.CorrespondentSatellite(id)
		if id == t.Root() {
			sinkable = false
		}
		sink := func() {
			delta := t.SubtreeSatTime(id) + n.UpComm
			loads[sat] += delta
			placeSubtree(t, asg, id, model.OnSatellite(sat))
			rec()
			resetSubtree(t, asg, id)
			loads[sat] -= delta
		}
		host := func() {
			hostTime += n.HostTime
			asg.Set(id, model.Host)
			stack = append(stack, n.Children...)
			for _, c := range n.Children {
				forcedRemaining += forcedSub[c]
				pushPend(c)
			}
			rec()
			for _, c := range n.Children {
				forcedRemaining -= forcedSub[c]
				popPend(c)
			}
			stack = stack[:len(stack)-len(n.Children)]
			hostTime -= n.HostTime
		}
		if !sinkable {
			host()
			return
		}
		cur := maxLoad()
		sinkDelta := math.Max(cur, loads[sat]+t.SubtreeSatTime(id)+n.UpComm) - cur
		if sinkDelta <= n.HostTime {
			sink()
			host()
		} else {
			host()
			sink()
		}
	}
	rec()
	if ctxErr != nil {
		return nil, ctxErr
	}
	if budgetHit {
		return nil, ErrBudget
	}
	if math.IsInf(res.Delay, 1) {
		return nil, ErrBudget
	}
	return res, nil
}
