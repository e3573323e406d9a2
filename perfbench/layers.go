package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/bottleneck"
	"repro/internal/core"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/server"
)

// checkRatio checks a ratio answer's invariants: Theorem 8's bound
// ratio ≤ 2 with the server's own check true, and ratio = best_u/honest.
func checkRatio(r *server.RatioResponse) error {
	ratioV, err := numeric.Parse(r.Ratio)
	if err != nil {
		return fmt.Errorf("ratio %q: %v", r.Ratio, err)
	}
	honest, err := numeric.Parse(r.Honest)
	if err != nil {
		return fmt.Errorf("honest %q: %v", r.Honest, err)
	}
	best, err := numeric.Parse(r.BestU)
	if err != nil {
		return fmt.Errorf("best_u %q: %v", r.BestU, err)
	}
	if !r.LeqTwo || !ratioV.LessEq(numeric.Two) {
		return fmt.Errorf("ratio %s breaks Theorem 8 (leq_two %v)", r.Ratio, r.LeqTwo)
	}
	if !honest.IsZero() && !best.Div(honest).Equal(ratioV) {
		return fmt.Errorf("ratio %s ≠ best_u/honest = %s/%s", r.Ratio, r.BestU, r.Honest)
	}
	if r.Evals <= 0 {
		return fmt.Errorf("evals %d", r.Evals)
	}
	return nil
}

// answerDigest is the digest of a typed answer's canonical JSON.
func answerDigest(v any) (string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	c, err := canonicalJSON(raw)
	if err != nil {
		return "", err
	}
	return digest(c), nil
}

// serverSpans are the request stages the server records as spans.
var serverSpans = []string{"server.decode", "server.admit", "server.compute", "server.write"}

// spanTimes accumulates self time per span name over the traces of a
// traced phase.
type spanTimes struct {
	mu      sync.Mutex
	self    map[string]time.Duration
	traces  int
	missing int
}

func newSpanTimes() *spanTimes { return &spanTimes{self: map[string]time.Duration{}} }

// fetch reads trace id from the backend's /debug/trace and adds its self
// times. A trace is ingested when its handler returns, which can be just
// after the client has the answer, so a 404 is retried briefly.
func (st *spanTimes) fetch(c *benchClient, base, id string) error {
	if id == "" {
		st.miss()
		return nil
	}
	var body []byte
	var err error
	for try := 0; try < 50; try++ {
		body, err = c.get(context.Background(), base, "/debug/trace?id="+url.QueryEscape(id))
		if err == nil || !strings.Contains(err.Error(), ": 404 ") {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		st.miss()
		return nil
	}
	var snap obs.TraceSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return fmt.Errorf("trace %s: %w", id, err)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	selfTimes(snap.Root, st.self)
	st.traces++
	return nil
}

func (st *spanTimes) miss() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.missing++
}

// fill sets server.*_ms to the mean self time per op of each stage.
func (st *spanTimes) fill(o *outcome, ops int) {
	for name, v := range st.perOp(ops) {
		o.layers[name+"_ms"] = v
	}
	o.report["traces_read"] = st.traces
	o.report["traces_missing"] = st.missing
}

// perOp is the mean self time per op of each server stage, in ms.
func (st *spanTimes) perOp(ops int) map[string]float64 {
	out := map[string]float64{}
	for _, name := range serverSpans {
		out[name] = ratio(ms(st.self[name]), float64(ops))
	}
	return out
}

// cacheLayers sets the server cache and batcher ratios from two /metrics
// scrapes around a phase of ops ops (scan-jobs).
func cacheLayers(o *outcome, before, after map[string]float64, ops int) {
	hits := delta(before, after, "irshared_cache_hits_total")
	misses := delta(before, after, "irshared_cache_misses_total")
	o.layers["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	o.layers["server.cache_miss_ratio"] = ratio(misses, hits+misses)
	o.layers["server.cache_evictions_per_op"] = ratio(delta(before, after, "irshared_cache_evictions_total"), float64(ops))
	runs := delta(before, after, "irshared_batch_runs_total")
	joins := delta(before, after, "irshared_batch_joins_total")
	o.layers["server.batch_join_ratio"] = ratio(joins, runs+joins)
}

// coreProbe times the solver directly — core.NewInstanceCtx and
// OptimizeCtx, no HTTP — on rings the workload sent, and sums the
// incremental engine's exact counters.
type coreProbe struct {
	newMs, optRandom, optLBF []float64
	evals, solves            int
	st                       bottleneck.SplitSolverStats
}

// solve runs one direct solve and returns its total time.
func (p *coreProbe) solve(r ring, grid int) (time.Duration, error) {
	ctx := context.Background()
	g := r.graph()
	t0 := time.Now()
	in, err := core.NewInstanceCtx(ctx, g, r.v)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	opt, err := in.OptimizeCtx(ctx, core.OptimizeOptions{Grid: grid})
	if err != nil {
		return 0, err
	}
	t2 := time.Now()
	p.newMs = append(p.newMs, ms(t1.Sub(t0)))
	if r.family == "lbf" {
		p.optLBF = append(p.optLBF, ms(t2.Sub(t1)))
	} else {
		p.optRandom = append(p.optRandom, ms(t2.Sub(t1)))
	}
	p.evals += opt.Evals
	p.solves++
	s := in.EvalStats().Solver
	p.st.Evals += s.Evals
	p.st.Fallbacks += s.Fallbacks
	p.st.Stage1Warm += s.Stage1Warm
	p.st.Stage1Cold += s.Stage1Cold
	p.st.WarmRestarts += s.WarmRestarts
	p.st.TransferHits += s.TransferHits
	p.st.TransferMisses += s.TransferMisses
	p.st.TailHits += s.TailHits
	p.st.TailMisses += s.TailMisses
	p.st.LaterWarm += s.LaterWarm
	p.st.LaterCold += s.LaterCold
	return t2.Sub(t0), nil
}

// fill sets the core and bottleneck per-layer metrics. Per-op counts are
// per solve.
func (p *coreProbe) fill(o *outcome) {
	n := float64(p.solves)
	o.layers["core.new_instance_ms"] = median(p.newMs)
	o.layers["core.optimize_ms.random"] = orZero(median(p.optRandom))
	o.layers["core.optimize_ms.lbf"] = orZero(median(p.optLBF))
	o.layers["core.evals_per_op"] = ratio(float64(p.evals), n)
	o.report["core_solves"] = p.solves
	s := p.st
	o.layers["bottleneck.stage1_warm_ratio"] = ratio(float64(s.Stage1Warm), float64(s.Stage1Warm+s.Stage1Cold))
	o.layers["bottleneck.warm_restarts_per_op"] = ratio(float64(s.WarmRestarts), n)
	o.layers["bottleneck.later_cold_per_op"] = ratio(float64(s.LaterCold), n)
	o.layers["bottleneck.later_warm_per_op"] = ratio(float64(s.LaterWarm), n)
	o.layers["bottleneck.transfer_hit_ratio"] = ratio(float64(s.TransferHits), float64(s.TransferHits+s.TransferMisses))
	o.layers["bottleneck.tail_hit_ratio"] = ratio(float64(s.TailHits), float64(s.TailHits+s.TailMisses))
	o.layers["bottleneck.fallbacks_per_op"] = ratio(float64(s.Fallbacks), n)
}

func orZero(v float64) float64 {
	if v != v { // NaN: no sample of this kind
		return 0
	}
	return v
}
