package main

import (
	"context"
	"fmt"
	"time"

	"repro/client"
)

// coldGrid is the optimizer grid of every ratio-cold request.
const coldGrid = 16

// serverCacheSize is the instance cache capacity of server.Config's
// defaults: 128 graphs, least recently used evicted first.
const serverCacheSize = 128

// coldWindow is how many other rings ratio-cold sends before it may send a
// ring again. Every request inserts its ring into the cache, so by then the
// cache has evicted it; the cache-hit guard checks that it has.
const coldWindow = 2 * serverCacheSize

// coldSnapshotOp is the op after which ratio-cold reads live_heap_mb:
// the cache then holds the same 128 rings in every run. A run ends
// anywhere in the pinned pool, so the end of the phase would not.
const coldSnapshotOp = 140

// A bare restart takes about a millisecond, and single ones vary
// threefold, so recover_ms on ratio-cold is the median of many: a batch
// of coldRestartBatch every coldRestartEvery of the measured phase (about
// 270 in 40 s), and at least coldRestarts. Batches are small and many
// because the median of one probe process's restarts varies by a quarter
// from one process to the next.
const (
	coldRestarts     = 201
	coldRestartBatch = 8
	coldRestartEvery = time.Second
)

// bareRestarts times n restarts of a backend with no data dir, each from
// server.New to its first /readyz answer.
func bareRestarts(n int) ([]float64, error) {
	return restartTimes(n, "", func(c *benchClient, base string) error {
		_, err := c.get(context.Background(), base, "/readyz")
		return err
	})
}

// warmLayerTime is how long ratio-cold's traced run measures the warm
// path (see warmLayers).
const warmLayerTime = 4 * time.Second

// ratioCold is the ratio-cold workload: one client, direct to one backend,
// POST /v1/ratio on a ring the cache no longer holds (none of the last
// coldWindow sent), so every request misses the cache and the exact solver
// does nearly all the work.
func ratioCold(rc *runCtx) (*outcome, error) {
	o := newOutcome()
	pool := coldPool()
	rl := newRelabeler(rc.seed, pool, ring.key, coldWindow)
	warm := coldWarmups()
	for _, w := range warm {
		rl.issue(w)
	}
	b, err := startBackend("")
	if err != nil {
		return nil, err
	}
	c := newClient(b.web.url, rc.seed)
	// teardown closes the client and the backend, once, on every way out.
	closed := false
	teardown := func() {
		closed = true
		c.close()
		if err := b.close(); err != nil {
			o.problem("close backend: %v", err)
		}
		b, c = nil, nil
	}
	defer func() {
		if !closed {
			teardown()
		}
	}()
	for _, w := range warm {
		resp, err := c.Ratio(context.Background(), &client.RatioRequest{Graph: w.wire(), V: w.v, Grid: coldGrid})
		if err == nil {
			err = checkRatio(resp)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up ratio: %w", err)
		}
	}
	if rc.setupDone(o) {
		return o, nil
	}

	// sent records each op's ring and latency in the traced phase, for the
	// direct-solve comparison.
	type sentOp struct {
		r   ring
		lat time.Duration
	}
	var sent []sentOp
	spans := newSpanTimes()
	op := func(traced, pinned bool) func(c, i int) opResult {
		return func(_, i int) opResult {
			r, _, err := rl.next(i % len(pool))
			if err != nil {
				o.problem("%v", err)
				return opResult{}
			}
			ids := &traceIDs{}
			ctx := context.WithValue(context.Background(), traceKey{}, ids)
			t0 := time.Now()
			resp, err := c.Ratio(ctx, &client.RatioRequest{Graph: r.wire(), V: r.v, Grid: coldGrid})
			lat := time.Since(t0)
			if err != nil {
				o.problem("ratio op %d: %v", i, err)
				return opResult{lat: lat}
			}
			if err := checkRatio(resp); err != nil {
				o.problem("ratio op %d: %v", i, err)
				return opResult{lat: lat}
			}
			d, err := answerDigest(resp)
			if err != nil {
				o.problem("ratio op %d: %v", i, err)
				return opResult{lat: lat}
			}
			if pinned {
				rc.checkPinned(o, "ratio-cold", i, d)
				if i == rc.snapshotOp(coldSnapshotOp)-1 {
					o.e2e["live_heap_mb"] = liveHeapMiB()
				}
			}
			if traced {
				sent = append(sent, sentOp{r, lat})
				if err := spans.fetch(c, b.web.url, ids.backend); err != nil {
					o.problem("%v", err)
				}
			}
			return opResult{lat: lat, ok: true, points: resp.Evals, kind: r.family}
		}
	}

	dur := rc.dur
	if rc.trace {
		dur /= 2
	}
	m0, err := c.scrape(b.web.url)
	if err != nil {
		return nil, err
	}
	// Restarts are sampled between the untraced ops; a traced run reports
	// no recover_ms.
	rs := &restartSampler{name: "ratio-cold", batch: coldRestartBatch, every: coldRestartEvery}
	untraced := op(false, true)
	do := untraced
	if !rc.trace {
		rs.start()
		do = func(c, i int) opResult {
			rs.tick()
			return untraced(c, i)
		}
	}
	p := measure(1, dur, rc.pinOps, do)
	rs.account(&p)
	if _, ok := o.e2e["live_heap_mb"]; !ok {
		o.e2e["live_heap_mb"] = liveHeapMiB()
		o.report["snapshot_at"] = "end of a phase shorter than the snapshot op"
	}
	p.endToEnd(o)
	m1, err := c.scrape(b.web.url)
	if err != nil {
		return nil, err
	}
	if hits := delta(m0, m1, "irshared_cache_hits_total"); hits != 0 {
		o.problem("ratio-cold lost its shape: %.0f cache hits", hits)
	}

	if rc.trace {
		tp := measure(1, dur, 0, op(true, false))
		m2, err := c.scrape(b.web.url)
		if err != nil {
			return nil, err
		}
		o.attempted += len(tp.ops)
		o.failed += tp.failed()
		if hits := delta(m1, m2, "irshared_cache_hits_total"); hits != 0 {
			o.problem("ratio-cold lost its shape: %.0f cache hits in the traced phase", hits)
		}
		// The cold path's stage times go to the report; the server.*_ms
		// metrics come from the warm phase below, where those stages are
		// the op's cost.
		o.report["cold_stage_ms"] = spans.perOp(len(tp.ops))
		hits := delta(m1, m2, "irshared_cache_hits_total")
		misses := delta(m1, m2, "irshared_cache_misses_total")
		o.layers["server.cache_miss_ratio"] = ratio(misses, hits+misses)
		o.layers["server.cache_evictions_per_op"] = ratio(delta(m1, m2, "irshared_cache_evictions_total"), float64(len(tp.ops)))
		p.runtimeLayers(o)
		o.layers["obs.overhead_share"] = overheadShare(p, tp)
		if o.layers["http.floor_ms"], err = c.floor(b.web.url, 200); err != nil {
			return nil, err
		}
		// Direct solves of the first random and lbf rings the traced phase
		// sent: the solver's own time, and what the server adds around it.
		var probe coreProbe
		var overhead []float64
		nRandom, nLBF := 0, 0
		for _, s := range sent {
			if s.r.family == "lbf" {
				if nLBF >= 4 {
					continue
				}
				nLBF++
			} else {
				if nRandom >= 18 {
					continue
				}
				nRandom++
			}
			direct, err := probe.solve(s.r, coldGrid)
			if err != nil {
				return nil, err
			}
			overhead = append(overhead, ms(s.lat-direct))
		}
		probe.fill(o)
		o.layers["server.overhead_ms"] = median(overhead)
		if err := warmLayers(o, rc, warmLayerTime); err != nil {
			return nil, err
		}
	}
	o.layers["client.retries_per_op"] = ratio(float64(c.retries.Load()), float64(o.attempted))
	teardown()
	if !rc.trace {
		// Recovery: with no data dir a restart replays nothing, so
		// recover_ms is the bare restart.
		ts, err := rs.finish(coldRestarts)
		if err != nil {
			return nil, err
		}
		o.report["recover_samples_ms"] = ts
		o.e2e["recover_ms"] = median(ts)
	}
	setLayerDefaults(o)
	return o, nil
}
