package exact

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/workload"
)

func TestBruteForcePaperTree(t *testing.T) {
	tree := workload.PaperTree()
	res, err := BruteForce(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Assignment.Validate(tree); err != nil {
		t.Fatalf("invalid optimum: %v", err)
	}
	// Optimum can never beat the trivial lower bound (must-host time) nor
	// lose to the all-on-host assignment.
	allHost, _ := eval.Delay(tree, model.NewAssignment(tree))
	if res.Delay > allHost {
		t.Errorf("optimum %v worse than all-host %v", res.Delay, allHost)
	}
	if res.Delay <= 0 {
		t.Errorf("optimum %v not positive", res.Delay)
	}
	// Search space size matches the enumeration count.
	if want := CountAssignments(tree); float64(res.Explored) != want {
		t.Errorf("explored %d assignments, CountAssignments says %v", res.Explored, want)
	}
}

func TestCountAssignmentsSmall(t *testing.T) {
	// root with two mono subtrees a (1 sensor) and b (1 sensor):
	// a: sink or host (sensor cut) = 2; same for b; total = 2*2 = 4.
	b := model.NewBuilder()
	s0 := b.Satellite("s0")
	s1 := b.Satellite("s1")
	root := b.Root("root", 1, 1)
	a := b.Child(root, "a", 1, 1, 1)
	b.Sensor(a, "sa", s0, 1)
	bb := b.Child(root, "b", 1, 1, 1)
	b.Sensor(bb, "sb", s1, 1)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := CountAssignments(tree); got != 4 {
		t.Fatalf("CountAssignments = %v, want 4", got)
	}
	res, err := BruteForce(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Explored != 4 {
		t.Fatalf("explored = %d, want 4", res.Explored)
	}
}

func TestBruteForceBudget(t *testing.T) {
	tree := workload.PaperTree()
	if _, err := BruteForce(tree, 3); err != ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestParetoPaperTree(t *testing.T) {
	tree := workload.PaperTree()
	bf, err := BruteForce(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := Pareto(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bf.Delay-pa.Delay) > 1e-9 {
		t.Fatalf("Pareto %v != BruteForce %v", pa.Delay, bf.Delay)
	}
	if err := pa.Assignment.Validate(tree); err != nil {
		t.Fatalf("pareto assignment invalid: %v", err)
	}
}

func TestBranchAndBoundPaperTree(t *testing.T) {
	tree := workload.PaperTree()
	bf, err := BruteForce(tree, 0)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := BranchAndBound(context.Background(), tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bf.Delay-bb.Delay) > 1e-9 {
		t.Fatalf("B&B %v != BruteForce %v", bb.Delay, bf.Delay)
	}
	if bb.Explored > bf.Explored*3 {
		t.Errorf("B&B explored %d nodes vs %d brute-force assignments: pruning ineffective", bb.Explored, bf.Explored)
	}
}

func TestBranchAndBoundBudget(t *testing.T) {
	tree := workload.PaperTree()
	if _, err := BranchAndBound(context.Background(), tree, Options{MaxNodes: 2}); err != ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
}

func TestSolversAgreeOnScenarios(t *testing.T) {
	for _, tc := range []struct {
		name string
		tree *model.Tree
	}{
		{"epilepsy", workload.Epilepsy()},
		{"snmp", workload.SNMP()},
		{"paper-symbolic", workload.PaperTreeSymbolic()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bf, err := BruteForce(tc.tree, 0)
			if err != nil {
				t.Fatal(err)
			}
			pa, err := Pareto(tc.tree, 0)
			if err != nil {
				t.Fatal(err)
			}
			bb, err := BranchAndBound(context.Background(), tc.tree, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(bf.Delay-pa.Delay) > 1e-9 || math.Abs(bf.Delay-bb.Delay) > 1e-9 {
				t.Fatalf("disagreement: brute=%v pareto=%v bnb=%v", bf.Delay, pa.Delay, bb.Delay)
			}
		})
	}
}

// TestThreeSolversAgreeProperty is the heart of experiment E9: on random
// instances (clustered and scattered), all three independent exact solvers
// must return identical optima.
func TestThreeSolversAgreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for trial := 0; trial < 60; trial++ {
		spec := workload.RandomSpec{
			CRUs:       1 + rng.Intn(10),
			MaxArity:   1 + rng.Intn(3),
			Satellites: 1 + rng.Intn(4),
			Clustered:  trial%2 == 0,
			HostScale:  0.5 + rng.Float64(),
			SatRatio:   0.5 + 3*rng.Float64(), // includes satellites faster than host
			CommScale:  rng.Float64() * 2,
			RawFactor:  0.5 + 4*rng.Float64(),
		}
		tree := workload.Random(rng, spec)
		bf, err := BruteForce(tree, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pa, err := Pareto(tree, 0)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		bb, err := BranchAndBound(context.Background(), tree, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(bf.Delay-pa.Delay) > 1e-9 {
			t.Fatalf("trial %d: pareto %v != brute %v\n%s", trial, pa.Delay, bf.Delay, tree.Render())
		}
		if math.Abs(bf.Delay-bb.Delay) > 1e-9 {
			t.Fatalf("trial %d: bnb %v != brute %v\n%s", trial, bb.Delay, bf.Delay, tree.Render())
		}
	}
}

func TestDegenerateSingleSensor(t *testing.T) {
	b := model.NewBuilder()
	s := b.Satellite("s")
	root := b.Root("root", 2, 0)
	b.Sensor(root, "x", s, 3)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Only one assignment exists: root hosted, sensor uplinks raw frames.
	for name, solve := range map[string]func() (*Result, error){
		"brute":  func() (*Result, error) { return BruteForce(tree, 0) },
		"pareto": func() (*Result, error) { return Pareto(tree, 0) },
		"bnb":    func() (*Result, error) { return BranchAndBound(context.Background(), tree, Options{}) },
	} {
		res, err := solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(res.Delay-5) > 1e-9 {
			t.Errorf("%s: delay = %v, want 2+3", name, res.Delay)
		}
	}
}

func TestZeroCostProfiles(t *testing.T) {
	// All-zero times: every assignment has delay 0; solvers must not crash.
	b := model.NewBuilder()
	s := b.Satellite("s")
	root := b.Root("root", 0, 0)
	c := b.Child(root, "c", 0, 0, 0)
	b.Sensor(c, "x", s, 0)
	tree, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for name, solve := range map[string]func() (*Result, error){
		"brute":  func() (*Result, error) { return BruteForce(tree, 0) },
		"pareto": func() (*Result, error) { return Pareto(tree, 0) },
		"bnb":    func() (*Result, error) { return BranchAndBound(context.Background(), tree, Options{}) },
	} {
		res, err := solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Delay != 0 {
			t.Errorf("%s: delay = %v, want 0", name, res.Delay)
		}
	}
}
