package exact

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/boundcache"
	"repro/internal/model"
	"repro/internal/workload"
)

// floorCorpus is the seeded tree corpus of the floor properties: 1-4
// satellites, clustered and scattered colours, plus one tree whose CRUs
// are all must-host (every leaf CRU reads sensors on two satellites).
func floorCorpus(n int) []*model.Tree {
	rng := rand.New(rand.NewSource(13))
	out := []*model.Tree{allMustHostTree()}
	for len(out) < n {
		spec := workload.DefaultRandomSpec(2+rng.Intn(20), 1+rng.Intn(4))
		spec.Clustered = len(out)%2 == 0
		spec.SatRatio = 0.5 + 3*rng.Float64()
		out = append(out, workload.Random(rng, spec))
	}
	return out
}

func allMustHostTree() *model.Tree {
	b := model.NewBuilder()
	a, c := b.Satellite("a"), b.Satellite("c")
	root := b.Root("root", 2, 6)
	for i, h := range []float64{1, 3} {
		mid := b.Child(root, fmt.Sprintf("mid-%d", i), h, 3*h, 0.5)
		for j, w := range []float64{2, 1.5} {
			leaf := b.Child(mid, fmt.Sprintf("leaf-%d-%d", i, j), w, 2*w, 0.4)
			b.Sensor(leaf, fmt.Sprintf("x-%d-%d", i, j), a, 1.6+w)
			b.Sensor(leaf, fmt.Sprintf("y-%d-%d", i, j), c, 2.1*w)
		}
	}
	return b.MustBuild()
}

// standalone copies the subtree at id under a zero-cost root, so the
// copy's optimal delay is the subtree's least (host time + satellite
// load) with its parent hosted.
func standalone(t *model.Tree, id model.NodeID) *model.Tree {
	b := model.NewBuilder()
	sats := map[model.SatelliteID]model.SatelliteID{}
	for _, s := range t.Satellites() {
		sats[s.ID] = b.Satellite(s.Name)
	}
	var copyNode func(parent, id model.NodeID)
	copyNode = func(parent, id model.NodeID) {
		n := t.Node(id)
		if n.Kind == model.SensorKind {
			b.Sensor(parent, n.Name, sats[n.Satellite], n.UpComm)
			return
		}
		cp := b.Child(parent, n.Name, n.HostTime, n.SatTime, n.UpComm)
		for _, ch := range n.Children {
			copyNode(cp, ch)
		}
	}
	copyNode(b.Root("standalone-root", 0, 0), id)
	return b.MustBuild()
}

// TestSatFloorsMonochromaticExact: for every sinkable monochromatic CRU
// the floor on its colour is the brute-force standalone optimum of its
// span, every other entry of its row is zero, and a must-host row is
// its children's rows summed.
func TestSatFloorsMonochromaticExact(t *testing.T) {
	checked := 0
	for i, tree := range floorCorpus(120) {
		c := model.Compile(tree)
		ns := c.NumSats
		floor := satFloors(c, nil)
		for p := int32(0); p < int32(c.Len()); p++ {
			row := floor[int(p)*ns : int(p+1)*ns]
			if c.MustHost[p] {
				for s := range row {
					sum := 0.0
					for _, ch := range c.Children(p) {
						sum += floor[int(ch)*ns+s]
					}
					if math.Abs(row[s]-sum) > 1e-9 {
						t.Fatalf("tree %d pos %d: must-host floor[%d] = %v, children sum %v", i, p, s, row[s], sum)
					}
				}
				continue
			}
			col := int(c.Colour[p])
			for s, v := range row {
				if s != col && v != 0 {
					t.Fatalf("tree %d pos %d (colour %d): floor[%d] = %v, want 0", i, p, col, s, v)
				}
			}
			if !c.Proc[p] || p+1-c.Start[p] > 14 {
				continue
			}
			bf, err := BruteForce(standalone(tree, c.Post[p]), 0)
			if err != nil {
				t.Fatalf("tree %d pos %d: brute force: %v", i, p, err)
			}
			if math.Abs(row[col]-bf.Delay) > 1e-9 {
				t.Fatalf("tree %d pos %d: floor %v, standalone optimum %v", i, p, row[col], bf.Delay)
			}
			checked++
		}
	}
	if checked < 200 {
		t.Fatalf("only %d monochromatic spans checked", checked)
	}
}

// TestBranchAndBoundFloorMatchesPareto: with the floor in its bound the
// search stays exact at every width, with and without a bound cache.
func TestBranchAndBoundFloorMatchesPareto(t *testing.T) {
	ctx := context.Background()
	corpus := floorCorpus(200)
	caches := map[int]*boundcache.Cache{}
	for _, w := range []int{1, 2, 4} {
		caches[w] = boundcache.New(boundcache.Config{MinSpan: 4})
	}
	for i, tree := range corpus {
		pa, err := Pareto(tree, 0)
		if err != nil {
			t.Fatalf("tree %d: pareto: %v", i, err)
		}
		for _, w := range []int{1, 2, 4} {
			for _, bc := range []*boundcache.Cache{nil, caches[w]} {
				res, err := BranchAndBound(ctx, tree, Options{Workers: w, Bounds: bc})
				if err != nil {
					t.Fatalf("tree %d width %d cache %v: %v", i, w, bc != nil, err)
				}
				if !near(res.Delay, pa.Delay) {
					t.Fatalf("tree %d width %d cache %v: delay %v, pareto %v", i, w, bc != nil, res.Delay, pa.Delay)
				}
			}
		}
	}
}
