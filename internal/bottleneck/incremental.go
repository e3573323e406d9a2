package bottleneck

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/obs"
)

// SplitSolver is an incremental decomposition engine for the split paths of
// the Sybil analysis: paths whose interior weights are fixed once and whose
// two leaf weights (w1, w2) vary between evaluations. A sweep over w1 on a
// fixed ring instance evaluates hundreds of such paths that differ only at
// the endpoints; the solver exploits the fixed interior three ways.
//
//  1. Prefix DP reuse. The λ-subproblem on a path is a three-implicit-state
//     linear DP (dp.go). Its transitions over the interior do not involve
//     the endpoint weights, so for each λ the solver runs the interior pass
//     once — parametrized by the membership bits of the left boundary and
//     read out per right-boundary state — and caches the resulting 4×4
//     min-plus transfer. Every later evaluation at the same λ combines the
//     cached transfer with the O(1) endpoint terms instead of re-running
//     the O(n) sweep per Dinkelbach iteration.
//  2. Warm-started Dinkelbach. The optimal λ* is a piecewise-Möbius
//     function of w1 whose structure changes only at finitely many
//     breakpoints, so the λ* of the nearest previously evaluated w1 is an
//     excellent starting iterate: most warm starts converge in one or two
//     iterations. Warm starting cannot change the answer — any start
//     λ0 ≥ λ* reaches the same unique fixed point, and undershooting
//     starts are detected and restarted cold (see maxBottleneckWarmAt).
//  3. Tail caching. The stage recursion of Definition 2 is Markovian in
//     the residual vertex set: once both endpoints have been extracted,
//     the remaining pair sequence depends only on the (fixed-weight)
//     residual interior, so it is memoized per residual set and replayed
//     exactly on every later evaluation that reaches the same residual.
//
// Exactness is preserved throughout: every cached object is an exact
// rational computation that the stock engine would repeat verbatim, so
// Eval's output is Rat-identical to DecomposeWith(p, EnginePathDP) — the
// parity tests in incremental_test.go enforce this bit for bit.
//
// SplitSolver is safe for concurrent use; the optimizer's grid phase hits
// one solver from many goroutines.
type SplitSolver struct {
	interior []numeric.Rat // fixed interior weights, path positions 1..n-2
	n        int           // full path length (≥ 3 for the incremental path)
	ok       bool          // incremental machinery usable (positive interior)

	interiorComp dpComponent // interior-only component for integer planning

	mu        sync.Mutex
	transfers map[string]*interiorTransfer
	tails     map[string][]Pair
	hints     map[string][]warmHint
	stats     SplitSolverStats
}

// SplitSolverStats counts the solver's cache behavior; read via Stats.
type SplitSolverStats struct {
	// Evals is the number of Eval calls; Fallbacks of those were served by
	// the stock engine (zero endpoint or interior weights, or a too-short
	// path).
	Evals, Fallbacks int
	// Stage1Warm / Stage1Cold count first-stage Dinkelbach runs that
	// started from a warm hint vs from scratch; WarmRestarts counts warm
	// starts that undershot λ* and restarted cold.
	Stage1Warm, Stage1Cold, WarmRestarts int
	// TransferHits / TransferMisses count per-λ interior transfer lookups.
	TransferHits, TransferMisses int
	// TailHits / TailMisses count memoized residual tail lookups.
	TailHits, TailMisses int
	// LaterWarm / LaterCold count Dinkelbach runs of endpoint-bearing
	// stages after the first (induced-subgraph stages).
	LaterWarm, LaterCold int
}

type warmHint struct {
	w1     float64 // heuristic locator only; exactness never depends on it
	lambda numeric.Rat
}

// interiorTransfer is the interior prefix DP at one λ: cells[2·s0+s1][a][b]
// is the best (cost, selected weight) over interior assignments with left
// boundary (s_0, s_1) and right boundary (s_{n-3}, s_{n-2}) = (a, b),
// counting selection costs of positions 1..n-2 and Γ-charges of positions
// 1..n-3. Endpoint terms (positions 0 and n-1, and the charge of n-2,
// which needs s_{n-1}) are combined per evaluation.
type interiorTransfer struct {
	cells [4][2][2]costW
}

// fullPathKey keys the warm-hint list of the first (full-path) stage.
const fullPathKey = "*"

// NewSplitSolver prepares an incremental solver for paths of the form
// [w1, interior..., w2]. Interior weights are captured by value.
func NewSplitSolver(interior []numeric.Rat) *SplitSolver {
	s := &SplitSolver{
		interior:  append([]numeric.Rat(nil), interior...),
		n:         len(interior) + 2,
		ok:        len(interior) >= 1,
		transfers: make(map[string]*interiorTransfer),
		tails:     make(map[string][]Pair),
		hints:     make(map[string][]warmHint),
	}
	for _, w := range s.interior {
		if w.Sign() <= 0 {
			// Zero interior weights engage the zero-attachment convention
			// of DecomposeWith; keep every evaluation on the stock path.
			s.ok = false
		}
	}
	if s.ok {
		s.interiorComp = dpComponent{order: iota0(len(interior)), ws: s.interior}
	}
	return s
}

// Stats returns a snapshot of the solver's cache counters.
func (s *SplitSolver) Stats() SplitSolverStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Eval decomposes the path p, which must be the path graph
// [w1, interior..., w2] over the solver's interior. The result is
// Rat-identical to DecomposeWith(p, EnginePathDP) in every α, pair set and
// derived utility; only the amount of work differs.
func (s *SplitSolver) Eval(p *graph.Graph, w1, w2 numeric.Rat) (*Decomposition, error) {
	return s.EvalCtx(context.Background(), p, w1, w2)
}

// EvalCtx is Eval with cancellation, checked at stage boundaries and inside
// every Dinkelbach run. Cancellation is safe for the shared solver: every
// cached object (interior transfer, residual tail, warm hint) is inserted
// only after it is fully built, so an abandoned evaluation leaves the caches
// exactly as a never-started one would, and concurrent evaluations are
// unaffected.
func (s *SplitSolver) EvalCtx(ctx context.Context, p *graph.Graph, w1, w2 numeric.Rat) (*Decomposition, error) {
	ctx, span := obs.Start(ctx, "splitsolver.eval")
	defer span.End()
	s.mu.Lock()
	s.stats.Evals++
	s.mu.Unlock()
	if !s.ok || w1.Sign() <= 0 || w2.Sign() <= 0 || p.N() != s.n {
		// Zero-weight endpoints trigger DecomposeWith's explicit
		// zero-attachment convention; replaying it here would duplicate
		// subtle code for the two grid-boundary splits of a sweep.
		s.mu.Lock()
		s.stats.Fallbacks++
		s.mu.Unlock()
		span.AddInt("fallback", 1)
		return DecomposeCtx(ctx, p, EnginePathDP)
	}

	residual := iota0(s.n)
	var pairs []Pair
	for len(residual) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		hasLeft := residual[0] == 0
		hasRight := residual[len(residual)-1] == s.n-1
		if !hasLeft && !hasRight {
			tail, err := s.tailFor(ctx, p, residual)
			if err != nil {
				return nil, err
			}
			pairs = append(pairs, tail...)
			break
		}
		var (
			alpha numeric.Rat
			B, C  []int
			err   error
		)
		if len(residual) == s.n {
			alpha, B, err = s.stage1(ctx, w1, w2)
			if err != nil {
				return nil, err
			}
			C = p.NeighborhoodSet(B)
		} else {
			alpha, B, C, err = s.laterStage(ctx, residual, w1, w2, hasLeft, hasRight)
			if err != nil {
				return nil, err
			}
		}
		// Defensive audit, as in decomposeInner: λ must equal w(C)/w(B).
		if wb := p.WeightOf(B); !p.WeightOf(C).Div(wb).Equal(alpha) {
			return nil, fmt.Errorf("bottleneck: incremental α mismatch: λ=%v but w(C)/w(B)=%v",
				alpha, p.WeightOf(C).Div(wb))
		}
		pairs = append(pairs, Pair{B: B, C: C, Alpha: alpha})
		next := residual[:0]
		rm := make(map[int]bool, len(B)+len(C))
		for _, v := range B {
			rm[v] = true
		}
		for _, v := range C {
			rm[v] = true
		}
		for _, v := range residual {
			if !rm[v] {
				next = append(next, v)
			}
		}
		if len(next) == len(residual) {
			return nil, fmt.Errorf("bottleneck: incremental decomposition made no progress")
		}
		residual = next
	}
	span.AddInt("stages", int64(len(pairs)))
	d := &Decomposition{Pairs: pairs}
	if err := d.finish(s.n); err != nil {
		return nil, err
	}
	return d, nil
}

// stage1 finds the maximal bottleneck of the full path with warm-started
// Dinkelbach over the cached interior transfers.
func (s *SplitSolver) stage1(ctx context.Context, w1, w2 numeric.Rat) (numeric.Rat, []int, error) {
	sp := obs.FromContext(ctx)
	if warm, ok := s.nearestHint(fullPathKey, w1.Float64()); ok && warm.Sign() > 0 && warm.Less(numeric.One) {
		alpha, B, err := s.dinkelbachFull(ctx, warm, w1, w2, true)
		if err == nil {
			s.recordRun(fullPathKey, w1.Float64(), alpha, &s.stats.Stage1Warm)
			sp.AddInt("stage1_warm", 1)
			return alpha, B, nil
		}
		if err != errWarmTooLow {
			return numeric.Rat{}, nil, err
		}
		s.mu.Lock()
		s.stats.WarmRestarts++
		s.mu.Unlock()
		sp.AddInt("warm_restarts", 1)
	}
	// Cold start: α(V) = 1 on a path with ≥ 2 vertices and positive
	// weights (Γ(V) = V), matching maxBottleneck's initial iterate.
	alpha, B, err := s.dinkelbachFull(ctx, numeric.One, w1, w2, false)
	if err != nil {
		return numeric.Rat{}, nil, err
	}
	s.recordRun(fullPathKey, w1.Float64(), alpha, &s.stats.Stage1Cold)
	sp.AddInt("stage1_cold", 1)
	return alpha, B, nil
}

// dinkelbachFull is the Dinkelbach loop over the full path, with values
// from cached interior transfers and membership extracted only at λ*.
func (s *SplitSolver) dinkelbachFull(ctx context.Context, lambda, w1, w2 numeric.Rat, warm bool) (numeric.Rat, []int, error) {
	sp := obs.FromContext(ctx)
	for iter := 0; ; iter++ {
		if err := ctx.Err(); err != nil {
			return numeric.Rat{}, nil, err
		}
		if err := fault.Hit(ctx, fault.SiteDinkelbach); err != nil {
			return numeric.Rat{}, nil, err
		}
		if iter > s.n*s.n+64 {
			return numeric.Rat{}, nil, fmt.Errorf("bottleneck: incremental Dinkelbach did not converge after %d iterations", iter)
		}
		sp.AddInt("iters", 1)
		val, wS := s.valueFull(s.transferFor(ctx, lambda), lambda, w1, w2)
		if val.Sign() > 0 {
			return numeric.Rat{}, nil, fmt.Errorf("bottleneck: incremental subproblem returned positive minimum %v", val)
		}
		if val.Sign() == 0 {
			B := s.fullMembers(lambda, w1, w2)
			if len(B) == 0 {
				// All weights are positive here, so an empty maximal
				// minimizer means λ < λ*: only reachable from a warm start.
				if warm {
					return numeric.Rat{}, nil, errWarmTooLow
				}
				return numeric.Rat{}, nil, fmt.Errorf("bottleneck: degenerate incremental minimizer at λ=%v", lambda)
			}
			return lambda, B, nil
		}
		if wS.Sign() <= 0 {
			return numeric.Rat{}, nil, fmt.Errorf("bottleneck: negative incremental minimum %v with zero-weight minimizer", val)
		}
		next := lambda.Add(val.Div(wS))
		if !next.Less(lambda) {
			return numeric.Rat{}, nil, fmt.Errorf("bottleneck: incremental Dinkelbach stalled at λ=%v", lambda)
		}
		lambda = next
	}
}

// laterStage extracts the maximal bottleneck of an endpoint-bearing
// residual strictly smaller than the full path, warm-started from the λ*
// recorded for the same residual at the nearest previously evaluated
// endpoint weight. The residual of a path decomposition is a union of
// subpaths — the maximal runs of consecutive positions — so the DP
// components are sliced straight out of the fixed interior instead of
// materializing an induced subgraph per stage.
func (s *SplitSolver) laterStage(ctx context.Context, residual []int, w1, w2 numeric.Rat, hasLeft, hasRight bool) (numeric.Rat, []int, []int, error) {
	wAt := func(v int) numeric.Rat {
		switch v {
		case 0:
			return w1
		case s.n - 1:
			return w2
		}
		return s.interior[v-1]
	}
	var comps []dpComponent
	total, gamma := numeric.Zero, numeric.Zero
	for i := 0; i < len(residual); {
		j := i + 1
		for j < len(residual) && residual[j] == residual[j-1]+1 {
			j++
		}
		run := residual[i:j]
		var ws []numeric.Rat
		if run[0] > 0 && run[len(run)-1] < s.n-1 {
			ws = s.interior[run[0]-1 : run[len(run)-1]]
		} else {
			ws = make([]numeric.Rat, len(run))
			for k, v := range run {
				ws[k] = wAt(v)
			}
		}
		comps = append(comps, dpComponent{order: run, ws: ws})
		runW := numeric.Zero
		for _, w := range ws {
			runW = runW.Add(w)
		}
		total = total.Add(runW)
		if len(run) > 1 {
			// Γ(V) of the residual is exactly the non-isolated vertices:
			// every vertex of a run of length ≥ 2 has a neighbor in it.
			gamma = gamma.Add(runW)
		}
		i = j
	}
	weightOf := func(S []int) numeric.Rat {
		t := numeric.Zero
		for _, v := range S {
			t = t.Add(wAt(v))
		}
		return t
	}
	key := intsKey(residual)
	locator := w1.Float64()
	if !hasLeft && hasRight {
		locator = w2.Float64()
	}
	warm, _ := s.nearestHint(key, locator)
	oracle := &dpOracle{comps: comps}
	alpha, B, usedWarm, err := maxBottleneckWarmAt(ctx, len(residual), weightOf, gamma.Div(total), oracle, warm)
	if err != nil {
		return numeric.Rat{}, nil, nil, err
	}
	counter := &s.stats.LaterCold
	if usedWarm {
		counter = &s.stats.LaterWarm
		obs.FromContext(ctx).AddInt("later_warm", 1)
	} else {
		obs.FromContext(ctx).AddInt("later_cold", 1)
	}
	s.recordRun(key, locator, alpha, counter)
	// C = Γ(B) within the residual: a residual position whose path neighbor
	// is in B (components are index runs, so adjacency is v±1 ∈ residual).
	inRes := make([]bool, s.n)
	for _, v := range residual {
		inRes[v] = true
	}
	inB := make([]bool, s.n)
	for _, v := range B {
		inB[v] = true
	}
	var C []int
	for _, v := range residual {
		if (v > 0 && inRes[v-1] && inB[v-1]) || (v < s.n-1 && inRes[v+1] && inB[v+1]) {
			C = append(C, v)
		}
	}
	return alpha, B, C, nil
}

// tailFor returns the remaining pair sequence of an endpoint-free residual,
// computing it once per residual set with the stock engine. The stage
// recursion depends only on the residual graph, whose weights are all
// fixed interior weights here, so the memoized tail is exact.
func (s *SplitSolver) tailFor(ctx context.Context, p *graph.Graph, residual []int) ([]Pair, error) {
	key := intsKey(residual)
	s.mu.Lock()
	cached, ok := s.tails[key]
	if ok {
		s.stats.TailHits++
	}
	s.mu.Unlock()
	if ok {
		obs.FromContext(ctx).AddInt("tail_hits", 1)
	}
	if !ok {
		obs.FromContext(ctx).AddInt("tail_misses", 1)
		sub, orig := p.InducedSubgraph(residual)
		dec, err := DecomposeCtx(ctx, sub, EnginePathDP)
		if err != nil {
			return nil, err
		}
		cached = make([]Pair, len(dec.Pairs))
		for i, pr := range dec.Pairs {
			cached[i] = Pair{B: mapBack(pr.B, orig), C: mapBack(pr.C, orig), Alpha: pr.Alpha}
		}
		s.mu.Lock()
		s.tails[key] = cached
		s.stats.TailMisses++
		s.mu.Unlock()
	}
	// Copy out so every Decomposition owns its pair slices.
	out := make([]Pair, len(cached))
	for i, pr := range cached {
		out[i] = Pair{
			B:     append([]int(nil), pr.B...),
			C:     append([]int(nil), pr.C...),
			Alpha: pr.Alpha,
		}
	}
	return out, nil
}

// transferFor returns the interior transfer at λ, building and caching it
// on first use. The context only carries the obs span the hit/miss is
// charged to — the prefix-DP reuse signal of the trace.
func (s *SplitSolver) transferFor(ctx context.Context, lambda numeric.Rat) *interiorTransfer {
	key := lambda.String()
	s.mu.Lock()
	t, ok := s.transfers[key]
	if ok {
		s.stats.TransferHits++
	}
	s.mu.Unlock()
	if ok {
		obs.FromContext(ctx).AddInt("transfer_hits", 1)
		return t
	}
	t = s.buildTransfer(lambda)
	s.mu.Lock()
	if prev, ok := s.transfers[key]; ok {
		t = prev // another goroutine built the identical transfer first
	} else {
		s.transfers[key] = t
	}
	s.stats.TransferMisses++
	s.mu.Unlock()
	obs.FromContext(ctx).AddInt("transfer_misses", 1)
	return t
}

// buildTransfer runs the interior prefix DP once per left-boundary
// assignment, on the machine-integer fast path when the magnitudes allow it
// and the gcd-free big.Int plan otherwise.
func (s *SplitSolver) buildTransfer(lambda numeric.Rat) *interiorTransfer {
	if pl, ok := s.interiorComp.intPlanFor(lambda); ok {
		return s.buildTransferInt(pl)
	}
	return s.buildTransferBig(s.interiorComp.bigPlanFor(lambda))
}

// buildTransferBig is buildTransfer on the big.Int plan.
func (s *SplitSolver) buildTransferBig(pl bigPlan) *interiorTransfer {
	k := len(s.interior)
	t := &interiorTransfer{}
	for st := 0; st < 4; st++ {
		s0, s1 := st>>1, st&1
		var dp [2][2]bigCell
		init := bigCellZero()
		if s1 == 1 {
			init = bigCell{cost: pl.sel[0], wS: pl.wInt[0], ok: true}
		}
		dp[s0][s1] = init
		for j := 0; j+1 < k; j++ {
			var ndp [2][2]bigCell
			for a := 0; a < 2; a++ {
				for b := 0; b < 2; b++ {
					if !dp[a][b].ok {
						continue
					}
					for cb := 0; cb < 2; cb++ {
						cand := pl.step(dp[a][b], j, a, cb)
						if cand.better(ndp[b][cb]) {
							ndp[b][cb] = cand
						}
					}
				}
			}
			dp = ndp
		}
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				if dp[a][b].ok {
					t.cells[st][a][b] = pl.toCostW(dp[a][b])
				}
			}
		}
	}
	return t
}

// buildTransferInt is buildTransfer on machine integers.
func (s *SplitSolver) buildTransferInt(pl intPlan) *interiorTransfer {
	k := len(s.interior)
	t := &interiorTransfer{}
	for st := 0; st < 4; st++ {
		s0, s1 := st>>1, st&1
		var dp [2][2]intCell
		init := intCell{ok: true}
		if s1 == 1 {
			init = intCell{cost: pl.sel[0], wS: pl.wInt[0], ok: true}
		}
		dp[s0][s1] = init
		for j := 0; j+1 < k; j++ {
			var ndp [2][2]intCell
			for a := 0; a < 2; a++ {
				for b := 0; b < 2; b++ {
					if !dp[a][b].ok {
						continue
					}
					for cb := 0; cb < 2; cb++ {
						cand := dp[a][b]
						if a == 1 || cb == 1 {
							cand.cost += pl.charge[j]
						}
						if cb == 1 {
							cand.cost += pl.sel[j+1]
							cand.wS += pl.wInt[j+1]
						}
						if cand.better(ndp[b][cb]) {
							ndp[b][cb] = cand
						}
					}
				}
			}
			dp = ndp
		}
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				if dp[a][b].ok {
					t.cells[st][a][b] = pl.toCostW(dp[a][b])
				}
			}
		}
	}
	return t
}

// valueFull combines the cached interior transfer with the endpoint terms
// of one (w1, w2) pair: selection costs and Γ-charges of positions 0 and
// n-1, plus the charge of position n-2 (which needs s_{n-1}). O(1) in the
// path length.
func (s *SplitSolver) valueFull(t *interiorTransfer, lambda, w1, w2 numeric.Rat) (numeric.Rat, numeric.Rat) {
	selW1 := lambda.Mul(w1).Neg()
	selW2 := lambda.Mul(w2).Neg()
	wLast := s.interior[len(s.interior)-1]
	best := costW{}
	for st := 0; st < 4; st++ {
		s0, s1 := st>>1, st&1
		for a := 0; a < 2; a++ {
			for b := 0; b < 2; b++ {
				cell := t.cells[st][a][b]
				if !cell.ok {
					continue
				}
				for sN := 0; sN < 2; sN++ {
					cost, wS := cell.cost, cell.wS
					if s0 == 1 {
						cost = cost.Add(selW1)
						wS = wS.Add(w1)
					}
					if s1 == 1 {
						cost = cost.Add(w1) // charge of position 0: w1·[s_1]
					}
					if a == 1 || sN == 1 {
						cost = cost.Add(wLast) // charge of n-2: w_{n-2}·[s_{n-3} ∨ s_{n-1}]
					}
					if sN == 1 {
						cost = cost.Add(selW2)
						wS = wS.Add(w2)
					}
					if b == 1 {
						cost = cost.Add(w2) // charge of position n-1: w2·[s_{n-2}]
					}
					cand := costW{cost: cost, wS: wS, ok: true}
					if cand.better(best) {
						best = cand
					}
				}
			}
		}
	}
	return best.cost, best.wS
}

// fullMembers extracts the maximal minimizer of the full path at λ with the
// stock membership DP (one O(n) forward/backward sweep), so the extracted
// set is byte-identical to the one dpOracle.maximal would report.
func (s *SplitSolver) fullMembers(lambda, w1, w2 numeric.Rat) []int {
	ws := make([]numeric.Rat, s.n)
	ws[0] = w1
	copy(ws[1:], s.interior)
	ws[s.n-1] = w2
	c := dpComponent{order: iota0(s.n), ws: ws}
	var members []bool
	if pl, ok := c.intPlanFor(lambda); ok {
		_, members = c.pathMembershipInt(pl)
	} else {
		_, members = c.pathMembershipBig(c.bigPlanFor(lambda))
	}
	var out []int
	for i, m := range members {
		if m {
			out = append(out, i)
		}
	}
	return out
}

// nearestHint returns a warm λ for the locator: the larger of the λ*
// recorded at the two surrounding w1 values. Dinkelbach converges from
// above, and within a structure piece λ* is a monotone Möbius function of
// w1, so the max over a bracketing pair is ≥ λ* for every locator inside
// the bracket — undershoot restarts then happen only across piece
// boundaries. Hints are a pure heuristic either way: a bad hint costs at
// most a restarted run, never a wrong answer.
func (s *SplitSolver) nearestHint(key string, locator float64) (numeric.Rat, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	hs := s.hints[key]
	if len(hs) == 0 {
		return numeric.Rat{}, false
	}
	i := sort.Search(len(hs), func(i int) bool { return hs[i].w1 >= locator })
	warm, found := numeric.Rat{}, false
	for _, cand := range []int{i - 1, i} {
		if cand < 0 || cand >= len(hs) {
			continue
		}
		if !found || warm.Less(hs[cand].lambda) {
			warm = hs[cand].lambda
		}
		found = true
	}
	return warm, found
}

// recordRun stores the λ* attained at locator for future warm starts and
// bumps the given stats counter.
func (s *SplitSolver) recordRun(key string, locator float64, lambda numeric.Rat, counter *int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	*counter++
	hs := s.hints[key]
	i := sort.Search(len(hs), func(i int) bool { return hs[i].w1 >= locator })
	if i < len(hs) && hs[i].w1 == locator {
		hs[i].lambda = lambda
		return
	}
	hs = append(hs, warmHint{})
	copy(hs[i+1:], hs[i:])
	hs[i] = warmHint{w1: locator, lambda: lambda}
	s.hints[key] = hs
}

func iota0(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// intsKey renders a sorted vertex set as a compact map key.
func intsKey(xs []int) string {
	var b strings.Builder
	b.Grow(len(xs) * 3)
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}
