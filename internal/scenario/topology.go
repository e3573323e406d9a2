package scenario

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/graph"
	"repro/internal/mechanism"
	"repro/internal/numeric"
	"repro/internal/scan"
)

// Topology families. A family names a deterministic generator: instance i
// of a scan is fully determined by (family, seed, i, n, dist), so a
// resumed scan regenerates byte-identical graphs.
const (
	FamilyRing       = "ring"
	FamilyTree       = "tree"
	FamilyBarbell    = "barbell"
	FamilySmallWorld = "smallworld"
	FamilyER         = "er"
)

// Families returns the registered topology family names, in canonical
// (scan) order.
func Families() []string {
	return []string{FamilyRing, FamilyTree, FamilyBarbell, FamilySmallWorld, FamilyER}
}

// ValidFamily reports whether name is a registered topology family.
func ValidFamily(name string) bool {
	for _, f := range Families() {
		if f == name {
			return true
		}
	}
	return false
}

// TopologyOptions tunes Topology. Zero values select defaults.
type TopologyOptions struct {
	// Families lists the graph families to scan, in order (required,
	// each a registered family name; see Families).
	Families []string
	// Count is the number of instances per family (default 4).
	Count int
	// N is the vertex count per instance (default 8, minimum 5 — the floor
	// of the barbell and small-world generators).
	N int
	// Grid is the misreport resolution: each vertex's candidate reports are
	// w_v·c/Grid for c ∈ {1, ..., Grid−1} (default 8; c = Grid is the
	// truthful report, which is the scan's baseline rather than a point, and
	// c = 0 is excluded — zero reports fall outside the model's w > 0
	// domain).
	Grid int
	// Seed derives every instance's rng (see instanceSeed); two scans with
	// equal options enumerate identical graphs.
	Seed int64
	// Dist is the weight distribution for generated instances.
	Dist graph.WeightDist
	// Mechanism selects the allocation backend (nil = registry default, BD).
	Mechanism mechanism.Mechanism
}

// TopologyOutcome is the scan result for one generated instance: the worst
// single-agent misreport deviation found over all vertices and grid
// reports.
type TopologyOutcome struct {
	// Family/Index locate the instance: Index is the global scan index, so
	// the instance graph is TopologyInstance(opts, Index).
	Family string
	Index  int
	// N/M are the instance's vertex and edge counts.
	N, M int
	// WorstV is the vertex with the largest misreport ratio; WorstDigit its
	// maximizing report numerator (report = w_v·WorstDigit/Grid). −1/−1
	// when no deviation beats honesty anywhere (ratio 1 at the honest
	// report of vertex 0).
	WorstV, WorstDigit int
	// Honest/Best/Ratio are U_{WorstV} truthful, its best deviation
	// utility, and Best/Honest. When Unbounded is set a vertex with zero
	// honest utility gained Best > 0 and Ratio is meaningless (zero).
	Honest, Best, Ratio numeric.Rat
	Unbounded           bool
}

// FamilySummary aggregates a family's outcomes: the worst instance and its
// deviation.
type FamilySummary struct {
	Family string
	// Count is the number of outcomes aggregated.
	Count int
	// WorstIndex is the global index of the family's worst instance (−1
	// when Count is 0). WorstRatio is that instance's ratio — or, when
	// Unbounded is set, its raw deviation utility (the ratio being
	// infinite).
	WorstIndex int
	WorstRatio numeric.Rat
	Unbounded  bool
}

// TopologyResult is the outcome of Topology, following the shared sweep
// contract (partial prefix on cancellation).
type TopologyResult struct {
	// Outcomes covers instances [Start, NextIndex), one per instance in
	// global scan order (family-major: all of Families[0] first).
	Outcomes []TopologyOutcome
	// Summaries aggregates the returned outcomes per family, in Families
	// order (partial scans aggregate only the covered instances).
	Summaries []FamilySummary
	Partial   bool
	Start     int
	NextIndex int
	Total     int
}

// TopologyTotal returns the instance count of a scan: families × count.
func TopologyTotal(families, count int) int { return families * count }

// instanceSeed derives instance i's rng seed. The formula is part of the
// checkpoint contract — changing it would regenerate different graphs under
// resumed scans — so it is pinned here once: a fixed odd stride keeps
// neighboring instances' streams apart.
func instanceSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 + 1 }

// TopologyInstance regenerates the instance at global index i of a scan
// with the given options (family-major order). The server's certificate
// path uses it to rebuild a scan's worst ring instance exactly.
func TopologyInstance(opts TopologyOptions, i int) (*graph.Graph, string, error) {
	opts = topologyDefaults(opts)
	if err := topologyValidate(opts); err != nil {
		return nil, "", err
	}
	total := TopologyTotal(len(opts.Families), opts.Count)
	if i < 0 || i >= total {
		return nil, "", fmt.Errorf("scenario: instance index %d outside [0, %d)", i, total)
	}
	family := opts.Families[i/opts.Count]
	rng := rand.New(rand.NewSource(instanceSeed(opts.Seed, i)))
	var g *graph.Graph
	switch family {
	case FamilyRing:
		g = graph.RandomRing(rng, opts.N, opts.Dist)
	case FamilyTree:
		g = graph.RandomTree(rng, opts.N, opts.Dist)
	case FamilyBarbell:
		g = graph.RandomBarbell(rng, opts.N, opts.Dist)
	case FamilySmallWorld:
		g = graph.SmallWorld(rng, opts.N, 0.3, opts.Dist)
	case FamilyER:
		g = graph.RandomConnected(rng, opts.N, 0.15, opts.Dist)
	default:
		return nil, "", fmt.Errorf("scenario: unknown topology family %q", family)
	}
	return g, family, nil
}

func topologyDefaults(opts TopologyOptions) TopologyOptions {
	if opts.Count <= 0 {
		opts.Count = 4
	}
	if opts.N <= 0 {
		opts.N = 8
	}
	if opts.Grid <= 0 {
		opts.Grid = 8
	}
	return opts
}

func topologyValidate(opts TopologyOptions) error {
	if len(opts.Families) == 0 {
		return fmt.Errorf("scenario: topology scan needs at least one family")
	}
	for _, f := range opts.Families {
		if !ValidFamily(f) {
			return fmt.Errorf("scenario: unknown topology family %q", f)
		}
	}
	if opts.N < 5 {
		return fmt.Errorf("scenario: topology scan needs n ≥ 5, got %d", opts.N)
	}
	return nil
}

// Topology scans generated graph families for single-agent misreport
// deviations: for every instance, every vertex v tries reporting
// w_v·c/Grid for each c < Grid (the Cheng et al. deviation space
// restricted to the grid), and the instance's outcome records the vertex
// with the worst empirical incentive ratio. Unlike the ring machinery this
// is a lower-bound probe — no exactness claim beyond the evaluated points —
// but it runs under any mechanism and any registered family, which is what
// the general-network conjecture needs surveyed.
func Topology(ctx context.Context, opts TopologyOptions) (*TopologyResult, error) {
	sc, err := NewTopologyScan(opts)
	if err != nil {
		return nil, err
	}
	res, err := sc.Run(ctx, scan.Options[TopologyOutcome]{})
	if err != nil {
		return nil, err
	}
	return sc.Fold(res), nil
}

// TopologyScan is a topology scan as a scan: point i is generated instance
// i (family-major, see TopologyInstance).
type TopologyScan struct {
	opts TopologyOptions
	m    mechanism.Mechanism
}

// NewTopologyScan validates the options (see Topology).
func NewTopologyScan(opts TopologyOptions) (*TopologyScan, error) {
	opts = topologyDefaults(opts)
	if err := topologyValidate(opts); err != nil {
		return nil, err
	}
	m, err := resolve(opts.Mechanism)
	if err != nil {
		return nil, err
	}
	return &TopologyScan{opts: opts, m: m}, nil
}

// Len is the instance count.
func (s *TopologyScan) Len() int { return TopologyTotal(len(s.opts.Families), s.opts.Count) }

// Eval regenerates instance i and scans its deviations.
func (s *TopologyScan) Eval(ctx context.Context, i int) (TopologyOutcome, error) {
	g, family, err := TopologyInstance(s.opts, i)
	if err != nil {
		return TopologyOutcome{}, err
	}
	out, err := scanInstance(ctx, s.m, g, s.opts.Grid)
	if err != nil {
		return TopologyOutcome{}, fmt.Errorf("%s: %w", family, err)
	}
	out.Family, out.Index = family, i
	return out, nil
}

// Run runs the scan under opts (see scan.Run), recorded as one
// "scenario.topology" span under the scenario fault site.
func (s *TopologyScan) Run(ctx context.Context, opts scan.Options[TopologyOutcome]) (*scan.Result[TopologyOutcome], error) {
	return run(ctx, s, opts, "topology", "mechanism", s.m.Name(),
		"families", strconv.Itoa(len(s.opts.Families)), "instances", strconv.Itoa(s.Len()))
}

// Fold folds a run (a resumed one with its checkpointed prefix) into a
// TopologyResult with per-family summaries over the covered instances.
func (s *TopologyScan) Fold(res *scan.Result[TopologyOutcome]) *TopologyResult {
	return &TopologyResult{
		Outcomes:  res.Points,
		Summaries: SummarizeFamilies(s.opts.Families, res.Points),
		Partial:   res.Partial,
		Start:     res.Start,
		NextIndex: res.NextIndex,
		Total:     s.Len(),
	}
}

// deviationLess orders deviations for the earliest-maximum folds of a
// topology scan: an unbounded deviation beats every bounded one, bounded
// deviations compare by ratio and unbounded ones by raw utility.
func deviationLess(a, b TopologyOutcome) bool {
	if a.Unbounded != b.Unbounded {
		return b.Unbounded
	}
	if a.Unbounded {
		return a.Best.Less(b.Best)
	}
	return a.Ratio.Less(b.Ratio)
}

// scanInstance evaluates every (vertex, report) deviation of one instance.
// Each vertex keeps its earliest best report (the truthful report leads),
// and the outcome is the earliest worst vertex — ratio 1 at vertex 0's
// honest report when no deviation beats honesty anywhere.
func scanInstance(ctx context.Context, m mechanism.Mechanism, g *graph.Graph, grid int) (TopologyOutcome, error) {
	honestAlloc, err := m.Allocate(ctx, g)
	if err != nil {
		return TopologyOutcome{}, fmt.Errorf("honest allocation: %w", err)
	}
	cands := make([]TopologyOutcome, 1, g.N()+1)
	cands[0] = TopologyOutcome{
		WorstV: -1, WorstDigit: -1,
		Honest: honestAlloc.Utility(0), Best: honestAlloc.Utility(0), Ratio: numeric.One,
	}
	us := make([]numeric.Rat, grid)
	for v := 0; v < g.N(); v++ {
		us[0] = honestAlloc.Utility(v)
		for c := 1; c < grid; c++ {
			if err := ctx.Err(); err != nil {
				return TopologyOutcome{}, err
			}
			gp := g.Clone()
			gp.MustSetWeight(v, g.Weight(v).MulInt(int64(c)).DivInt(int64(grid)))
			a, err := m.Allocate(ctx, gp)
			if err != nil {
				return TopologyOutcome{}, fmt.Errorf("vertex %d report %d/%d: %w", v, c, grid, err)
			}
			us[c] = a.Utility(v)
		}
		// us[0] is the truthful report (digit grid); us[c] the report c/grid.
		c := scan.Best(us, numeric.Rat.Less)
		cand := TopologyOutcome{WorstV: v, WorstDigit: c, Honest: us[0], Best: us[c]}
		if c == 0 {
			cand.WorstDigit = grid
		}
		if cand.Ratio, err = scan.Ratio(cand.Best, cand.Honest); err != nil {
			cand.Unbounded = true
		}
		cands = append(cands, cand)
	}
	out := cands[scan.Best(cands, deviationLess)]
	out.N, out.M = g.N(), g.M()
	return out, nil
}

// SummarizeFamilies folds outcomes into per-family worst-instance
// summaries, in the given family order: each family's earliest worst
// outcome. Outcomes of families not listed are ignored.
func SummarizeFamilies(families []string, outcomes []TopologyOutcome) []FamilySummary {
	byFamily := make(map[string][]TopologyOutcome, len(families))
	for _, out := range outcomes {
		byFamily[out.Family] = append(byFamily[out.Family], out)
	}
	sums := make([]FamilySummary, len(families))
	for i, f := range families {
		outs := byFamily[f]
		sums[i] = FamilySummary{Family: f, Count: len(outs), WorstIndex: -1}
		if j := scan.Best(outs, deviationLess); j >= 0 {
			w := outs[j]
			sums[i].WorstIndex, sums[i].Unbounded, sums[i].WorstRatio = w.Index, w.Unbounded, w.Ratio
			if w.Unbounded {
				sums[i].WorstRatio = w.Best
			}
		}
	}
	return sums
}
