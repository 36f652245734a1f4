package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro"
	"repro/api"
)

// tolerance is the relative error allowed between a served delay and the
// oracle, and between a served delay and its re-evaluated assignment.
const tolerance = 1e-9

// oracleSolver computes reference optima outside the fleet.
var oracleSolver = repro.NewSolver()

// optimum is one instance's reference answer: its fingerprint and the
// pareto-dp optimum, cross-checked against adapted-ssb.
type optimum struct {
	fp  string
	opt float64
}

// solveOracle computes t's optimum with pareto-dp and fails if
// adapted-ssb, the paper's exact algorithm, disagrees.
func solveOracle(t *repro.Tree) (optimum, error) {
	ctx := context.Background()
	dp, err := oracleSolver.Solve(ctx, t, repro.WithAlgorithm(repro.ParetoDP))
	if err != nil {
		return optimum{}, fmt.Errorf("oracle pareto-dp: %w", err)
	}
	ssb, err := oracleSolver.Solve(ctx, t, repro.WithAlgorithm(repro.AdaptedSSB))
	if err != nil {
		return optimum{}, fmt.Errorf("oracle adapted-ssb: %w", err)
	}
	if relDiff(dp.Delay, ssb.Delay) > tolerance {
		return optimum{}, fmt.Errorf("oracle disagreement: pareto-dp %v, adapted-ssb %v", dp.Delay, ssb.Delay)
	}
	return optimum{fp: repro.Fingerprint(t), opt: dp.Delay}, nil
}

// treeOf builds the instance a request body carries.
func treeOf(body []byte) (*repro.Tree, error) {
	var req struct {
		Spec *repro.Spec `json:"spec"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	return (&api.SolveRequest{Spec: req.Spec}).Tree()
}

// decodeStrict decodes a wire body, rejecting unknown fields as the
// server does.
func decodeStrict(body []byte, into any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(into)
}

// assignmentFromWire rebuilds the Assignment a response names with
// api.AssignmentFromNames, and rejects names of CRUs t does not have.
func assignmentFromWire(t *repro.Tree, placed map[string]string) (*repro.Assignment, error) {
	a, err := api.AssignmentFromNames(t, placed)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, id := range t.Preorder() {
		if !t.Node(id).IsLeaf() {
			n++
		}
	}
	if n != len(placed) {
		return nil, fmt.Errorf("assignment names %d CRUs, the tree has %d", len(placed), n)
	}
	return a, nil
}

// checkSolve verifies one served answer for tree t against the oracle
// optimum o. An exact answer must equal the optimum; any other (partial,
// or a heuristic's; allowed only when partialOK) must bracket it,
// lower_bound ≤ optimum ≤ delay. Either way the assignment, re-evaluated
// locally, must give the reported delay.
func checkSolve(t *repro.Tree, o optimum, r *api.SolveResponse, partialOK bool) error {
	if r == nil {
		return fmt.Errorf("no result")
	}
	if r.Fingerprint != o.fp {
		return fmt.Errorf("fingerprint %s, want %s", r.Fingerprint, o.fp)
	}
	switch {
	case r.Partial || !r.Exact:
		if !partialOK {
			return fmt.Errorf("%s answer is not exact where an exact one was required", r.Algorithm)
		}
		if r.LowerBound > o.opt*(1+tolerance) || o.opt > r.Delay*(1+tolerance) {
			return fmt.Errorf("%s answer violates lower_bound %v <= optimum %v <= delay %v", r.Algorithm, r.LowerBound, o.opt, r.Delay)
		}
	case relDiff(r.Delay, o.opt) > tolerance:
		return fmt.Errorf("%s delay %v, optimum %v", r.Algorithm, r.Delay, o.opt)
	}
	a, err := assignmentFromWire(t, r.Assignment)
	if err != nil {
		return err
	}
	bd, err := repro.Evaluate(t, a)
	if err != nil {
		return fmt.Errorf("evaluating the served assignment: %w", err)
	}
	if relDiff(bd.Delay, r.Delay) > tolerance {
		return fmt.Errorf("assignment evaluates to %v, response says %v", bd.Delay, r.Delay)
	}
	return nil
}
