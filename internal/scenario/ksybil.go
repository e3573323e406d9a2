package scenario

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mechanism"
	"repro/internal/numeric"
	"repro/internal/scan"
)

// KSybilOptions tunes KSybil. Zero values select defaults.
type KSybilOptions struct {
	// K is the number of identities the agent splits into (required, ≥ 2).
	// k = 2 is exactly the paper's two-identity split; the enumeration then
	// reproduces sybil.RingSweep index for index, point for point.
	K int
	// Grid is the composition resolution: identity j receives
	// w_v·c_j/Grid with Σ c_j = Grid (default 64).
	Grid int
	// Mechanism selects the allocation backend (nil = the registry default,
	// BD). Mechanisms with a native ring sweep engine (RingSweeper) are
	// evaluated through the shared core.Instance incremental path; others
	// pay one Allocate per point on the explicit two-leaf split path.
	Mechanism mechanism.Mechanism
	// Instance, when non-nil, supplies a pre-built BD instance for g/v so a
	// caller's solver cache (memoized pair evaluations, warm Dinkelbach
	// state) is reused. Only consulted on the native BD path.
	Instance *core.Instance
}

// KSybilPoint is one exactly evaluated k-way split.
type KSybilPoint struct {
	// Comp is the grid composition (c_1, ..., c_k), Σ c_j = Grid; identity j
	// holds w_v·c_j/Grid.
	Comp []int
	// U is the attacker's combined utility Σ_j U_{v^j} at this split.
	U numeric.Rat
}

// KSybilResult is the outcome of KSybil (or of a KSybilScan run folded by
// Fold), with the sweep contract of sybil.SweepResult: on cancellation
// Points holds the contiguous completed prefix, Partial is set, and
// rerunning from NextIndex with Points as the prefix reconstructs the full
// scan bit for bit.
type KSybilResult struct {
	scan.Result[KSybilPoint]
	// BestIndex is the index into Points of the best split — the earliest
	// maximum. BestComp/BestU mirror that point. Zero values when Points is
	// empty.
	BestIndex int
	BestComp  []int
	BestU     numeric.Rat
	// Honest is U_v(G; w) under the selected mechanism, and
	// Ratio = BestU / Honest (1 when both are zero). For a partial result
	// the ratio covers only the returned points.
	Honest, Ratio numeric.Rat
	// Total is the number of points of the full (symmetry-reduced)
	// enumeration — the denominator for progress reporting.
	Total int
}

// KSybilTotal returns the number of points a KSybil scan over grid/k
// evaluates (the symmetry-reduced composition count), capped at limit as in
// Odometer.Count. It is the submission-time validator for the durable job.
func KSybilTotal(grid, k, limit int) (int, error) {
	o, err := NewOdometer(grid, k, true)
	if err != nil {
		return 0, err
	}
	return o.Count(limit), nil
}

// KSybil scans the k-identity Sybil attack of agent v on ring g: v splits
// into identities v¹..v^k, v¹ keeping the edge to v's successor on the
// ring, v^k the edge to the predecessor, and v²..v^{k-1} isolated. Weights
// range over the composition grid Σ c_j = Grid in odometer order (see
// NewOdometer; interior permutations are reduced for k ≥ 3, since isolated
// identities are interchangeable under any anonymous mechanism).
//
// Isolated identities earn nothing — they have no neighbors to trade with —
// so each point is evaluated on the two-leaf split path carrying only w¹
// and w^k, i.e. the paper's P_v(w¹, w^k) with total reported weight
// w¹ + w^k ≤ w_v. For k = 2 this is exactly the two-identity sweep: the
// result matches sybil.RingSweep (BD) and mechanism.RingSweep (generic)
// bit for bit, point for point.
func KSybil(ctx context.Context, g *graph.Graph, v int, opts KSybilOptions) (*KSybilResult, error) {
	sc, err := NewKSybilScan(ctx, g, v, opts)
	if err != nil {
		return nil, err
	}
	res, err := sc.Run(ctx, scan.Options[KSybilPoint]{})
	if err != nil {
		return nil, err
	}
	return sc.Fold(res)
}

// KSybilScan is the k-identity Sybil attack as a scan: point i is the i-th
// composition of the (symmetry-reduced) odometer enumeration.
type KSybilScan struct {
	m      mechanism.Mechanism
	k      int
	grid   int
	w      numeric.Rat
	comps  [][]int
	eval   func(ctx context.Context, w1, wk numeric.Rat) (numeric.Rat, error)
	honest numeric.Rat
}

// NewKSybilScan validates the options and binds the per-point kernel and
// honest utility (see KSybil).
func NewKSybilScan(ctx context.Context, g *graph.Graph, v int, opts KSybilOptions) (*KSybilScan, error) {
	if opts.K < 2 {
		return nil, fmt.Errorf("scenario: k-identity scan needs k ≥ 2, got %d", opts.K)
	}
	if opts.Grid <= 0 {
		opts.Grid = 64
	}
	if !g.IsRing() {
		return nil, fmt.Errorf("scenario: graph is not a ring")
	}
	if v < 0 || v >= g.N() {
		return nil, fmt.Errorf("scenario: vertex %d outside [0, %d)", v, g.N())
	}
	od, err := NewOdometer(opts.Grid, opts.K, true)
	if err != nil {
		return nil, err
	}
	m, err := resolve(opts.Mechanism)
	if err != nil {
		return nil, err
	}
	sc := &KSybilScan{m: m, k: opts.K, grid: opts.Grid, w: g.Weight(v)}
	for c, ok := od.Next(); ok; c, ok = od.Next() {
		sc.comps = append(sc.comps, append([]int(nil), c...))
	}
	if sc.eval, sc.honest, err = ksybilKernel(ctx, m, g, v, opts.K, opts.Instance); err != nil {
		return nil, err
	}
	return sc, nil
}

// Len is the number of compositions.
func (s *KSybilScan) Len() int { return len(s.comps) }

// Eval evaluates composition i.
func (s *KSybilScan) Eval(ctx context.Context, i int) (KSybilPoint, error) {
	comp := s.comps[i]
	w1 := s.w.MulInt(int64(comp[0])).DivInt(int64(s.grid))
	wk := s.w.MulInt(int64(comp[s.k-1])).DivInt(int64(s.grid))
	u, err := s.eval(ctx, w1, wk)
	return KSybilPoint{Comp: comp, U: u}, err
}

// Run runs the scan under opts (see scan.Run), recorded as one
// "scenario.ksybil" span under the scenario fault site.
func (s *KSybilScan) Run(ctx context.Context, opts scan.Options[KSybilPoint]) (*scan.Result[KSybilPoint], error) {
	return run(ctx, s, opts, "ksybil", "mechanism", s.m.Name(), "k", strconv.Itoa(s.k),
		"grid", strconv.Itoa(s.grid), "points", strconv.Itoa(s.Len()))
}

// Fold folds a run (a resumed one with its checkpointed prefix) into a
// KSybilResult: the earliest-maximum best split and the ratio rule.
func (s *KSybilScan) Fold(res *scan.Result[KSybilPoint]) (*KSybilResult, error) {
	out := &KSybilResult{Result: *res, Honest: s.honest, Total: s.Len()}
	if i := scan.Best(res.Points, func(a, b KSybilPoint) bool { return a.U.Less(b.U) }); i >= 0 {
		out.BestIndex, out.BestComp, out.BestU = i, res.Points[i].Comp, res.Points[i].U
	}
	var err error
	if out.Ratio, err = scan.Ratio(out.BestU, s.honest); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return out, nil
}

// ksybilKernel binds the per-point evaluator and honest utility for the
// chosen mechanism: the incremental core.Instance pair engine for BD (any
// RingSweeper), one Allocate over the explicit two-leaf path for the rest.
func ksybilKernel(ctx context.Context, m mechanism.Mechanism, g *graph.Graph, v, k int, in *core.Instance) (func(context.Context, numeric.Rat, numeric.Rat) (numeric.Rat, error), numeric.Rat, error) {
	if _, native := m.(mechanism.RingSweeper); native {
		if in == nil {
			var err error
			if in, err = core.NewInstanceCtx(ctx, g, v); err != nil {
				return nil, numeric.Rat{}, err
			}
		}
		eval := func(ctx context.Context, w1, wk numeric.Rat) (numeric.Rat, error) {
			ev, err := in.EvalWithheldCtx(ctx, w1, wk)
			if err != nil {
				return numeric.Rat{}, err
			}
			return ev.U, nil
		}
		return eval, in.HonestU, nil
	}
	honestAlloc, err := m.Allocate(ctx, g)
	if err != nil {
		return nil, numeric.Rat{}, fmt.Errorf("scenario: honest allocation: %w", err)
	}
	if k == 2 {
		// Delegate to the generic sweep's exact kernel: w1 + w2 = w_v, and
		// iterative mechanisms (pr) are sensitive to the split graph's vertex
		// numbering, so bit-identity with mechanism.RingSweep requires the
		// identical graph.TwoSplitOnRing construction, not merely an
		// isomorphic path.
		eval := func(ctx context.Context, w1, _ numeric.Rat) (numeric.Rat, error) {
			return mechanism.SplitUtility(ctx, m, g, v, w1)
		}
		return eval, honestAlloc.Utility(v), nil
	}
	ring, err := g.RingOrder(v)
	if err != nil {
		return nil, numeric.Rat{}, err
	}
	// The split path runs v¹, then the rest of the ring in ring order, then
	// v^k — the same vertex sequence as graph.TwoSplitOnRing, so the k = 2
	// case sees an isomorphic (identically ordered) graph to the generic
	// sweep's kernel.
	interior := make([]numeric.Rat, len(ring)-1)
	for i, u := range ring[1:] {
		interior[i] = g.Weight(u)
	}
	eval := func(ctx context.Context, w1, wk numeric.Rat) (numeric.Rat, error) {
		ws := make([]numeric.Rat, 0, len(interior)+2)
		ws = append(ws, w1)
		ws = append(ws, interior...)
		ws = append(ws, wk)
		p := graph.Path(ws)
		a, err := m.Allocate(ctx, p)
		if err != nil {
			return numeric.Rat{}, err
		}
		return a.Utility(0).Add(a.Utility(p.N() - 1)), nil
	}
	return eval, honestAlloc.Utility(v), nil
}
