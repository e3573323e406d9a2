package mechanism

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/sybil"
)

// RingSweep evaluates the two-identity Sybil split curve of agent v on ring
// g under mechanism m, over the same uniform w1 grid as sybil.RingSweep.
// Mechanisms implementing RingSweeper (BD) are delegated to their native
// sweep engine — bit-identical to the pre-registry path; everything else is
// swept generically through sybil.Sweep, one graph.TwoSplitOnRing +
// m.Allocate per grid point (Splitter), so the grid, best-point rule,
// partial-on-cancellation prefix and ratio conventions are sybil's own.
func RingSweep(ctx context.Context, m Mechanism, g *graph.Graph, v int, opts sybil.SweepOptions) (*sybil.SweepResult, error) {
	if rs, ok := m.(RingSweeper); ok {
		return rs.SweepRing(ctx, g, v, opts)
	}
	if !g.IsRing() {
		return nil, fmt.Errorf("mechanism: graph is not a ring")
	}
	if v < 0 || v >= g.N() {
		return nil, fmt.Errorf("mechanism: vertex %d outside [0, %d)", v, g.N())
	}
	honestAlloc, err := m.Allocate(ctx, g)
	if err != nil {
		return nil, fmt.Errorf("mechanism: honest allocation: %w", err)
	}
	return sybil.SweepSplit(ctx, g.Weight(v), honestAlloc.Utility(v), Splitter(m, g, v), opts)
}

// Splitter is the split kernel of agent v on ring g under m: one
// SplitUtility evaluation per point.
func Splitter(m Mechanism, g *graph.Graph, v int) sybil.SplitFunc {
	return func(ctx context.Context, w1 numeric.Rat) (numeric.Rat, error) {
		return SplitUtility(ctx, m, g, v, w1)
	}
}

// SplitUtility evaluates one two-identity split under m: build the split
// path graph with v's weight divided (w1, W−w1) and sum the utilities of
// the two attacker identities. It is the per-point kernel of Splitter.
func SplitUtility(ctx context.Context, m Mechanism, g *graph.Graph, v int, w1 numeric.Rat) (numeric.Rat, error) {
	W := g.Weight(v)
	path, _, v1, v2, err := graph.TwoSplitOnRing(g, v, w1, W.Sub(w1))
	if err != nil {
		return numeric.Zero, err
	}
	a, err := m.Allocate(ctx, path)
	if err != nil {
		return numeric.Zero, err
	}
	return a.Utility(v1).Add(a.Utility(v2)), nil
}
