package scenario

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/graph"
	"repro/internal/mechanism"
	"repro/internal/numeric"
	"repro/internal/scan"
)

// CoalitionOptions tunes Coalition. Zero values select defaults.
type CoalitionOptions struct {
	// Members are the colluding vertices (required, ≥ 2, distinct, in
	// range). Member order is part of the enumeration contract: the first
	// member is the most significant digit of the report odometer.
	Members []int
	// Grid is the report resolution: member j reports w_j·c_j/Grid for a
	// digit c_j ∈ {1, ..., Grid} (default 8; the grid is a full product, so
	// points grow as Grid^m). Reports are strictly positive — the zero
	// report leaves an agent with no endowment, a degenerate profile
	// outside the model's w > 0 domain; near-sacrificial members report
	// w_j/Grid instead.
	Grid int
	// Mechanism selects the allocation backend (nil = registry default, BD).
	Mechanism mechanism.Mechanism
}

// CoalitionPoint is one exactly evaluated joint misreport.
type CoalitionPoint struct {
	// Digits holds c_j per member (first member most significant in the
	// enumeration); member j reported w_j·c_j/Grid.
	Digits []int
	// Members holds each member's utility at this point (Members order of
	// the options); Joint is their sum. Carrying the per-member vector in
	// every point is what lets a resumed scan reconstruct the best point's
	// attribution without re-evaluating it.
	Members []numeric.Rat
	Joint   numeric.Rat
}

// CoalitionResult is the outcome of Coalition, following the shared sweep
// contract (partial prefix on cancellation, earliest-maximum best).
type CoalitionResult struct {
	scan.Result[CoalitionPoint]
	// BestIndex indexes Points at the earliest maximum of Joint;
	// BestDigits/BestJoint mirror that point.
	BestIndex  int
	BestDigits []int
	BestJoint  numeric.Rat
	// HonestJoint is Σ_j U_j with every member truthful;
	// JointRatio = BestJoint / HonestJoint (1 when both zero).
	HonestJoint numeric.Rat
	JointRatio  numeric.Rat
	// Honest, BestMember hold the per-member utilities truthful and at the
	// best point (same order as Members); Gains[j] = BestMember[j] −
	// Honest[j] (may be negative — a sacrificial member), and
	// MemberRatios[j] = BestMember[j]/Honest[j] with the convention of
	// sybil.PairAttack: 1 when the honest utility is zero.
	Honest       []numeric.Rat
	BestMember   []numeric.Rat
	Gains        []numeric.Rat
	MemberRatios []numeric.Rat
	Total        int
}

// CoalitionTotal returns grid^members, the full point count of a coalition
// scan, or an error when it exceeds limit (limit ≤ 0 = no cap).
func CoalitionTotal(grid, members, limit int) (int, error) {
	if grid <= 0 || members < 2 {
		return 0, fmt.Errorf("scenario: coalition needs grid ≥ 1 and ≥ 2 members, got (%d, %d)", grid, members)
	}
	total := 1
	for j := 0; j < members; j++ {
		total *= grid
		if limit > 0 && total > limit {
			return 0, fmt.Errorf("scenario: coalition grid %d^%d exceeds %d points", grid, members, limit)
		}
	}
	return total, nil
}

// coalitionDigits decodes point index i into per-member digits in
// {1, ..., grid}, first member most significant, base grid.
func coalitionDigits(i, grid, members int) []int {
	d := make([]int, members)
	for j := members - 1; j >= 0; j-- {
		d[j] = 1 + i%grid
		i /= grid
	}
	return d
}

// Coalition scans joint misreports by a set of colluding agents on any
// connected graph: each member j simultaneously reports w_j·c_j/Grid in
// place of its true endowment w_j, over the full product grid of digit
// vectors in odometer order (first member most significant, so point
// Total−1 is the all-truthful profile). The objective is the coalition's
// joint utility; per-member gain attribution at the best point shows who
// profits and who sacrifices. Theorem 8 does not govern these deviations —
// the scan is the engine form of experiment E16, which shows coalitions
// escaping the ×2 bound.
func Coalition(ctx context.Context, g *graph.Graph, opts CoalitionOptions) (*CoalitionResult, error) {
	sc, err := NewCoalitionScan(ctx, g, opts)
	if err != nil {
		return nil, err
	}
	res, err := sc.Run(ctx, scan.Options[CoalitionPoint]{})
	if err != nil {
		return nil, err
	}
	return sc.Fold(res)
}

// CoalitionScan is a coalition misreport search as a scan: point i is the
// digit vector coalitionDigits(i).
type CoalitionScan struct {
	g       *graph.Graph
	m       mechanism.Mechanism
	members []int
	grid    int
	total   int
	honest  []numeric.Rat
}

// NewCoalitionScan validates the options and computes the members' honest
// utilities (see Coalition).
func NewCoalitionScan(ctx context.Context, g *graph.Graph, opts CoalitionOptions) (*CoalitionScan, error) {
	if len(opts.Members) < 2 {
		return nil, fmt.Errorf("scenario: coalition needs ≥ 2 members, got %d", len(opts.Members))
	}
	if opts.Grid <= 0 {
		opts.Grid = 8
	}
	seen := make(map[int]bool, len(opts.Members))
	for _, v := range opts.Members {
		if v < 0 || v >= g.N() {
			return nil, fmt.Errorf("scenario: coalition member %d outside [0, %d)", v, g.N())
		}
		if seen[v] {
			return nil, fmt.Errorf("scenario: coalition member %d listed twice", v)
		}
		seen[v] = true
	}
	total, err := CoalitionTotal(opts.Grid, len(opts.Members), 0)
	if err != nil {
		return nil, err
	}
	m, err := resolve(opts.Mechanism)
	if err != nil {
		return nil, err
	}
	honestAlloc, err := m.Allocate(ctx, g)
	if err != nil {
		return nil, fmt.Errorf("scenario: honest allocation: %w", err)
	}
	sc := &CoalitionScan{g: g, m: m, members: opts.Members, grid: opts.Grid, total: total,
		honest: make([]numeric.Rat, len(opts.Members))}
	for j, v := range opts.Members {
		sc.honest[j] = honestAlloc.Utility(v)
	}
	return sc, nil
}

// Len is Grid^members.
func (s *CoalitionScan) Len() int { return s.total }

// Eval evaluates the joint report of point i.
func (s *CoalitionScan) Eval(ctx context.Context, i int) (CoalitionPoint, error) {
	digits := coalitionDigits(i, s.grid, len(s.members))
	gp := s.g.Clone()
	for j, v := range s.members {
		gp.MustSetWeight(v, s.g.Weight(v).MulInt(int64(digits[j])).DivInt(int64(s.grid)))
	}
	a, err := s.m.Allocate(ctx, gp)
	if err != nil {
		return CoalitionPoint{}, err
	}
	p := CoalitionPoint{Digits: digits, Members: make([]numeric.Rat, len(s.members)), Joint: numeric.Zero}
	for j, v := range s.members {
		p.Members[j] = a.Utility(v)
		p.Joint = p.Joint.Add(p.Members[j])
	}
	return p, nil
}

// Run runs the scan under opts (see scan.Run), recorded as one
// "scenario.coalition" span under the scenario fault site.
func (s *CoalitionScan) Run(ctx context.Context, opts scan.Options[CoalitionPoint]) (*scan.Result[CoalitionPoint], error) {
	return run(ctx, s, opts, "coalition", "mechanism", s.m.Name(), "members", strconv.Itoa(len(s.members)),
		"grid", strconv.Itoa(s.grid), "points", strconv.Itoa(s.total))
}

// Fold folds a run (a resumed one with its checkpointed prefix) into a
// CoalitionResult: the earliest maximum of the joint utility, its
// per-member attribution, and the ratio rule on the joint utility. Member
// ratios read 1 where a member's honest utility is zero.
func (s *CoalitionScan) Fold(res *scan.Result[CoalitionPoint]) (*CoalitionResult, error) {
	out := &CoalitionResult{Result: *res, Honest: s.honest, HonestJoint: numeric.Sum(s.honest), Total: s.total}
	var err error
	if i := scan.Best(res.Points, func(a, b CoalitionPoint) bool { return a.Joint.Less(b.Joint) }); i >= 0 {
		p := res.Points[i]
		out.BestIndex, out.BestDigits, out.BestJoint, out.BestMember = i, p.Digits, p.Joint, p.Members
		out.Gains = make([]numeric.Rat, len(s.members))
		out.MemberRatios = make([]numeric.Rat, len(s.members))
		for j := range s.members {
			out.Gains[j] = p.Members[j].Sub(s.honest[j])
			if out.MemberRatios[j], err = scan.Ratio(p.Members[j], s.honest[j]); err != nil {
				out.MemberRatios[j] = numeric.One
			}
		}
	}
	if out.JointRatio, err = scan.Ratio(out.BestJoint, out.HonestJoint); err != nil {
		return nil, fmt.Errorf("scenario: coalition: %w", err)
	}
	return out, nil
}
