package mechanism

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/scan"
	"repro/internal/sybil"
)

// TournamentInstance is one arena: a ring graph and the designated attacker
// vertex whose Sybil split curve is swept under every competing mechanism.
type TournamentInstance struct {
	G *graph.Graph
	V int
}

// TournamentOptions tunes Tournament. Zero values select defaults.
type TournamentOptions struct {
	// Mechanisms selects the competitors by name (empty = every registered
	// mechanism). The set is sorted and deduplicated, so output order never
	// depends on input or registration order.
	Mechanisms []string
	// Grid is the sweep resolution shared by every cell (default 64).
	Grid int
	// Workers bounds per-sweep parallelism (≤ 0 = GOMAXPROCS).
	Workers int
}

// Cell is one (instance, mechanism) evaluation: the honest allocation's
// aggregate metrics plus the empirical Sybil sweep outcome.
type Cell struct {
	// Mechanism is the backend's registry name.
	Mechanism string `json:"mechanism"`
	// Efficiency is the total utility Σ_v U_v of the honest allocation.
	Efficiency numeric.Rat `json:"efficiency"`
	// Fairness is min_v U_v / max_v U_v (1 when every utility is zero).
	Fairness numeric.Rat `json:"fairness"`
	// Honest is the attacker's utility without splitting.
	Honest numeric.Rat `json:"honest"`
	// BestW1/BestU is the best two-identity split found on the grid.
	BestW1 numeric.Rat `json:"best_w1"`
	BestU  numeric.Rat `json:"best_u"`
	// Ratio is the empirical incentive ratio BestU/Honest on the grid.
	Ratio numeric.Rat `json:"ratio"`
}

// MechanismSummary aggregates one mechanism's column across all instances.
type MechanismSummary struct {
	Mechanism       string      `json:"mechanism"`
	Instances       int         `json:"instances"`
	MaxRatio        numeric.Rat `json:"max_ratio"`
	MeanRatio       numeric.Rat `json:"mean_ratio"`
	MinFairness     numeric.Rat `json:"min_fairness"`
	TotalEfficiency numeric.Rat `json:"total_efficiency"`
}

// TournamentResult is the full head-to-head outcome: the cell matrix in
// (instance, sorted mechanism) order plus per-mechanism summaries.
type TournamentResult struct {
	Mechanisms []string `json:"mechanisms"`
	Grid       int      `json:"grid"`
	// Cells[i][j] is instance i under Mechanisms[j].
	Cells   [][]Cell           `json:"cells"`
	Summary []MechanismSummary `json:"summary"`
}

// ResolveSet validates and canonicalizes a mechanism name selection: empty
// input selects every registered mechanism; otherwise each name must
// resolve, and the result is sorted and deduplicated.
func ResolveSet(names []string) ([]string, error) {
	if len(names) == 0 {
		return Names(), nil
	}
	seen := make(map[string]bool, len(names))
	out := make([]string, 0, len(names))
	for _, n := range names {
		if n == "" {
			n = Default
		}
		if _, err := Get(n); err != nil {
			return nil, err
		}
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out, nil
}

// EvaluateCell runs one (instance, mechanism) cell: the honest allocation's
// efficiency and fairness, then the full Sybil sweep for the empirical
// incentive ratio. It is one point of a TournamentScan, the unit of work
// the durable tournament job checkpoints on, so it must stay deterministic
// and self-contained.
func EvaluateCell(ctx context.Context, m Mechanism, g *graph.Graph, v int, grid, workers int) (Cell, error) {
	a, err := m.Allocate(ctx, g)
	if err != nil {
		return Cell{}, fmt.Errorf("mechanism %s: honest allocation: %w", m.Name(), err)
	}
	utils := a.Utilities()
	cell := Cell{
		Mechanism:  m.Name(),
		Efficiency: numeric.Sum(utils),
		Fairness:   fairness(utils),
	}
	sw, err := RingSweep(ctx, m, g, v, sybil.SweepOptions{Grid: grid, Workers: workers})
	if err != nil {
		return Cell{}, fmt.Errorf("mechanism %s: sweep: %w", m.Name(), err)
	}
	if sw.Partial {
		return Cell{}, ctx.Err()
	}
	cell.Honest = sw.Honest
	cell.BestW1 = sw.BestW1
	cell.BestU = sw.BestU
	cell.Ratio = sw.Ratio
	return cell, nil
}

// fairness is min/max of the utilities, with the all-zero convention of 1.
func fairness(utils []numeric.Rat) numeric.Rat {
	if len(utils) == 0 {
		return numeric.One
	}
	max := numeric.MaxOf(utils)
	if max.IsZero() {
		return numeric.One
	}
	return numeric.MinOf(utils).Div(max)
}

// Tournament evaluates every selected mechanism on every instance under the
// identical attack grid and returns the deterministic cell matrix with
// summaries. Instances keep their input order; mechanisms are sorted.
func Tournament(ctx context.Context, instances []TournamentInstance, opts TournamentOptions) (*TournamentResult, error) {
	if opts.Grid <= 0 {
		opts.Grid = 64
	}
	names, err := ResolveSet(opts.Mechanisms)
	if err != nil {
		return nil, err
	}
	if len(instances) == 0 {
		return nil, fmt.Errorf("mechanism: tournament needs at least one instance")
	}
	sc := &TournamentScan{Instances: instances, Names: names, Grid: opts.Grid, Workers: opts.Workers}
	res, err := scan.Run[Cell](ctx, sc, scan.Options[Cell]{})
	if err != nil {
		return nil, err
	}
	if res.Partial {
		return nil, ctx.Err()
	}
	return sc.Fold(res.Points), nil
}

// TournamentScan is a tournament as a scan: cell k is instance k/len(Names)
// under mechanism Names[k%len(Names)] (row-major), so an index addresses
// the same cell in every process that resumes the tournament.
type TournamentScan struct {
	Instances []TournamentInstance
	Names     []string
	Grid      int
	// Workers bounds each cell's sweep parallelism (≤ 0 = GOMAXPROCS).
	Workers int
}

// Len is the cell count.
func (t *TournamentScan) Len() int { return len(t.Instances) * len(t.Names) }

// Eval evaluates cell k.
func (t *TournamentScan) Eval(ctx context.Context, k int) (Cell, error) {
	i, j := k/len(t.Names), k%len(t.Names)
	m, err := Get(t.Names[j])
	if err != nil {
		return Cell{}, err
	}
	cell, err := EvaluateCell(ctx, m, t.Instances[i].G, t.Instances[i].V, t.Grid, t.Workers)
	if err != nil {
		return Cell{}, fmt.Errorf("instance %d: %w", i, err)
	}
	return cell, nil
}

// Fold assembles the TournamentResult from the full row-major cell list:
// the cell matrix plus per-mechanism summaries. A resumed tournament folds
// its checkpointed cells with the new ones, bit-identically to an
// uninterrupted run.
func (t *TournamentScan) Fold(cells []Cell) *TournamentResult {
	nm := len(t.Names)
	res := &TournamentResult{Mechanisms: t.Names, Grid: t.Grid, Cells: make([][]Cell, len(cells)/nm)}
	for i := range res.Cells {
		res.Cells[i] = cells[i*nm : (i+1)*nm]
	}
	for j, name := range t.Names {
		s := MechanismSummary{Mechanism: name}
		sum := numeric.Zero
		for i := range res.Cells {
			c := res.Cells[i][j]
			s.Instances++
			sum = sum.Add(c.Ratio)
			if s.Instances == 1 {
				s.MaxRatio, s.MinFairness = c.Ratio, c.Fairness
			} else {
				s.MaxRatio = s.MaxRatio.Max(c.Ratio)
				s.MinFairness = s.MinFairness.Min(c.Fairness)
			}
			s.TotalEfficiency = s.TotalEfficiency.Add(c.Efficiency)
		}
		if s.Instances > 0 {
			s.MeanRatio = sum.DivInt(int64(s.Instances))
		}
		res.Summary = append(res.Summary, s)
	}
	return res
}
