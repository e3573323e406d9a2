package sybil

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/scan"
)

// SweepOptions tunes RingSweep. Zero values select defaults.
type SweepOptions struct {
	// Grid is the number of uniform w1 intervals over [0, w_v] (default 64;
	// the sweep evaluates Grid+1 points including both endpoints).
	Grid int
	// Workers bounds the parallel evaluation workers (≤ 0 = GOMAXPROCS).
	Workers int
	// Cold disables the instance's evaluation cache and incremental split
	// engine, so every point costs a from-scratch decomposition — the
	// pre-optimization baseline, kept for benchmarking. Results are
	// identical either way.
	Cold bool
}

// SweepPoint is one exactly evaluated split of the sweep.
type SweepPoint struct {
	W1 numeric.Rat
	// U is the attacker's combined utility U_{v¹} + U_{v²} at this split.
	U numeric.Rat
}

// SweepResult is the outcome of RingSweep (or Sweep). Its scan.Result
// holds the points of grid indices [Start, NextIndex): when the context was
// canceled mid-sweep, Partial is set and Points holds only the contiguous
// completed prefix — every point in it bit-identical to the same point of
// an uncanceled run, because points are independent and exact — and
// rerunning Sweep from NextIndex reconstructs the rest of the sweep.
type SweepResult struct {
	scan.Result[SweepPoint]
	// BestW1/BestU is the best split among Points (a lower bound on the
	// optimum; use core.Instance.Optimize for the certified piecewise
	// search). Zero when Points is empty.
	BestW1, BestU numeric.Rat
	// BestIndex is the index into Points of the best split — the earliest
	// maximum: BestU strictly exceeds every earlier point and is ≥ every
	// later one. Certificates (internal/cert) record and re-verify this
	// rule. Zero when Points is empty.
	BestIndex int
	// Honest is U_v(G; w), and Ratio = BestU / Honest (1 when both zero).
	// For a partial result the ratio covers only the returned points.
	Honest, Ratio numeric.Rat
	// Stats exposes the evaluation-cache and incremental-solver counters
	// accumulated by the sweep.
	Stats core.EvalStats
}

// RingSweep evaluates the two-identity split utility curve of agent v on
// ring g at Grid+1 evenly spaced w1 values, sharing one core.Instance so
// the incremental split engine — cached interior transfers, warm-started
// Dinkelbach, memoized residual tails — is reused across the whole sweep
// instead of paying a fresh decomposition per point.
func RingSweep(g *graph.Graph, v int, opts SweepOptions) (*SweepResult, error) {
	return RingSweepCtx(context.Background(), g, v, opts)
}

// RingSweepCtx is RingSweep with cancellation and tracing: the context is threaded into every split evaluation, and when
// it carries an obs span the sweep is recorded as one "sybil.ring_sweep"
// span. A context canceled mid-sweep does not discard completed work — the
// call returns the contiguous completed prefix with Partial set (see
// SweepResult) instead of an error, so a deadline converts the sweep into
// a resumable prefix rather than wasted cycles.
func RingSweepCtx(ctx context.Context, g *graph.Graph, v int, opts SweepOptions) (*SweepResult, error) {
	in, err := core.NewInstanceCtx(ctx, g, v)
	if err != nil {
		return nil, err
	}
	in.SetEvalCache(!opts.Cold)
	in.SetIncremental(!opts.Cold)
	return SweepInstanceCtx(ctx, in, opts)
}

// SweepInstanceCtx runs the sweep over an already-built instance, reusing
// whatever solver state it has accumulated (the server calls this with its
// cached per-graph instances). Same partial-result semantics as
// RingSweepCtx.
func SweepInstanceCtx(ctx context.Context, in *core.Instance, opts SweepOptions) (*SweepResult, error) {
	res, err := SweepSplit(ctx, in.W(), in.HonestU, InstanceSplit(in), opts)
	if err != nil {
		return nil, err
	}
	res.Stats = in.EvalStats()
	return res, nil
}

// SplitFunc evaluates the attacker's combined utility when its weight is
// split at w1.
type SplitFunc func(ctx context.Context, w1 numeric.Rat) (numeric.Rat, error)

// InstanceSplit is the split kernel of a BD instance: its incremental
// split engine.
func InstanceSplit(in *core.Instance) SplitFunc {
	return func(ctx context.Context, w1 numeric.Rat) (numeric.Rat, error) {
		ev, err := in.EvalSplitCtx(ctx, w1)
		if err != nil {
			return numeric.Zero, err
		}
		return ev.U, nil
	}
}

// SweepSplit sweeps a split kernel over the whole grid of the agent's
// weight W under the library options — the body of SweepInstanceCtx and of
// every mechanism's generic sweep.
func SweepSplit(ctx context.Context, W, honest numeric.Rat, split SplitFunc, opts SweepOptions) (*SweepResult, error) {
	if opts.Grid <= 0 {
		opts.Grid = 64
	}
	return Sweep(ctx, GridScan{W: W, Grid: opts.Grid, Split: split}, honest, scan.Options[SweepPoint]{Workers: par.Workers(opts.Workers)})
}

// GridScan is the uniform w1 grid of one agent's two-identity split: point
// i splits the agent's weight W at w1 = W·i/Grid and evaluates Split there.
// Every split sweep — BD's incremental engine, any mechanism's generic
// kernel — is a GridScan.
type GridScan struct {
	W     numeric.Rat
	Grid  int
	Split SplitFunc
}

// Len is Grid+1: both endpoints are evaluated.
func (s GridScan) Len() int { return s.Grid + 1 }

// Eval evaluates grid point i.
func (s GridScan) Eval(ctx context.Context, i int) (SweepPoint, error) {
	w1 := s.W.MulInt(int64(i)).DivInt(int64(s.Grid))
	u, err := s.Split(ctx, w1)
	return SweepPoint{W1: w1, U: u}, err
}

// Sweep runs a split grid scan under opts (see scan.Run: a resume index,
// a checkpointed prefix, a checkpoint hook, workers) at the sweep fault
// site and folds it against the honest utility: the earliest-maximum best
// point and the ratio rule. A context canceled mid-sweep yields the
// contiguous completed prefix with Partial set, not an error. When ctx
// carries an obs span the sweep is recorded as one "sybil.ring_sweep"
// span. The library sweeps and the server's inline sweeps and sweep jobs
// all run through it.
func Sweep(ctx context.Context, sc GridScan, honest numeric.Rat, opts scan.Options[SweepPoint]) (*SweepResult, error) {
	ctx, span := obs.Start(ctx, "sybil.ring_sweep")
	defer span.End()
	if span != nil {
		span.SetAttr("grid", strconv.Itoa(sc.Grid))
		if opts.Start > 0 {
			span.SetAttr("start", strconv.Itoa(opts.Start))
		}
	}
	opts.Site = fault.SiteSweepPoint
	run, err := scan.Run(ctx, sc, opts)
	if err != nil {
		return nil, fmt.Errorf("sybil: sweep %w", err)
	}
	if span != nil && run.Partial {
		span.AddEvent("sweep_partial", "next_index", strconv.Itoa(run.NextIndex))
	}
	res := &SweepResult{Result: *run, Honest: honest}
	if i := scan.Best(res.Points, func(a, b SweepPoint) bool { return a.U.Less(b.U) }); i >= 0 {
		res.BestIndex, res.BestW1, res.BestU = i, res.Points[i].W1, res.Points[i].U
	}
	if res.Ratio, err = scan.Ratio(res.BestU, honest); err != nil {
		return nil, fmt.Errorf("sybil: %w", err)
	}
	return res, nil
}
