package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/client"
	"repro/internal/cert"
	"repro/internal/cluster"
)

// Warm-path request kinds, with their share of the mix.
const (
	kindRatio = iota
	kindRatioCert
	kindDecompose
	kindAllocate
	kindSweep
	numKinds
)

var kindNames = [numKinds]string{"ratio", "ratio_cert", "decompose", "allocate", "sweep"}

// kindMix is the cumulative share of each kind: 45% plain ratio, 5%
// ratio with a certificate (10% of ratio requests), 20% decompose, 15%
// allocate, 15% sweep.
var kindMix = [numKinds]float64{0.45, 0.50, 0.70, 0.85, 1}

const (
	warmClients = 2
	warmGrid    = 16 // ratio grid
	warmSweep   = 32 // sweep grid
	zipfS       = 1.1
)

// warmRequest is one warm-path request: ring index into the working set
// and kind.
type warmRequest struct{ ring, kind int }

// warmStream is one client's seeded request sequence.
type warmStream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newWarmStream(seed int64, client, size int) *warmStream {
	rng := rand.New(rand.NewSource(seed*7919 + int64(client)))
	return &warmStream{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(size-1))}
}

func (s *warmStream) next() warmRequest {
	r := int(s.zipf.Uint64())
	u := s.rng.Float64()
	k := 0
	for k < numKinds-1 && u >= kindMix[k] {
		k++
	}
	return warmRequest{ring: r, kind: k}
}

// sendWarm issues req through c and returns the answer's digest and, for
// ratio answers, the answer itself (with its certificate when asked for).
func sendWarm(ctx context.Context, c *benchClient, set []ring, req warmRequest) (string, *client.RatioResponse, error) {
	r := set[req.ring]
	var ans any
	var ratioResp *client.RatioResponse
	var err error
	switch req.kind {
	case kindRatio, kindRatioCert:
		ratioResp, err = c.Ratio(ctx, &client.RatioRequest{Graph: r.wire(), V: r.v, Grid: warmGrid, Cert: req.kind == kindRatioCert})
		if err == nil {
			err = checkRatio(ratioResp)
		}
		ans = ratioResp
	case kindDecompose:
		ans, err = c.Decompose(ctx, &client.DecomposeRequest{Graph: r.wire()})
	case kindAllocate:
		ans, err = c.Allocate(ctx, &client.AllocateRequest{Graph: r.wire()})
	case kindSweep:
		var sw *client.SweepResponse
		sw, err = c.Sweep(ctx, &client.SweepRequest{Graph: r.wire(), V: r.v, Grid: warmSweep})
		if err == nil && sw.Partial {
			err = fmt.Errorf("partial sweep")
		}
		ans = sw
	}
	if err != nil {
		return "", nil, fmt.Errorf("%s on ring %d: %w", kindNames[req.kind], req.ring, err)
	}
	d, err := answerDigest(ans)
	return d, ratioResp, err
}

// checkWarmSet compares the digest of a warmed answer set with the pinned
// one, which holds for every seed.
func checkWarmSet(o *outcome, rc *runCtx, d string) {
	if pin := rc.pinned[warmSetPin].Set; !rc.pinning && pin != d {
		o.problem("warmed answer set digest %s, pinned %s", d, pin)
	}
}

// warmSetPin is the pinned.json entry of the warmed answer set.
const warmSetPin = "warm-set"

// warmLayers measures the warm-path layers — server stages, cache reads,
// the batcher, the router and certificates — on a fresh warm-path stack
// for dur, traced. Ratio-cold's traced run calls it.
func warmLayers(o *outcome, rc *runCtx, dur time.Duration) error {
	set := warmSet()
	st, d, err := startWarm(rc, set)
	if err != nil {
		return err
	}
	defer st.close(o)
	checkWarmSet(o, rc, d)
	return st.tracedLayers(o, rc, set, dur)
}

// warmState is a warm-path set-up: backend, router and the warmed
// answers.
type warmState struct {
	b      *backend
	router *cluster.Router
	web    *listening
	c      *benchClient
	ref    [][numKinds]string // warmed answer digest per ring and kind
}

// startWarm starts a backend and a router in front of it, and warms the
// working set through the router: every request kind on every ring. It
// returns the digest of the warmed answers, in ring and kind order.
func startWarm(rc *runCtx, set []ring) (*warmState, string, error) {
	b, err := startBackend("")
	if err != nil {
		return nil, "", err
	}
	router, err := cluster.New(cluster.Config{Nodes: []string{b.web.url}, Logger: discardLogger})
	if err != nil {
		b.close()
		return nil, "", fmt.Errorf("cluster.New: %w", err)
	}
	router.Start()
	web, err := listen(router.Handler())
	if err != nil {
		router.Close()
		b.close()
		return nil, "", err
	}
	s := &warmState{b: b, router: router, web: web, c: newClient(web.url, rc.seed), ref: make([][numKinds]string, len(set))}
	fail := func(err error) (*warmState, string, error) {
		s.close(newOutcome())
		return nil, "", err
	}
	if err := s.waitReady(); err != nil {
		return fail(err)
	}
	var all strings.Builder
	for i := range set {
		for k := 0; k < numKinds; k++ {
			d, _, err := sendWarm(context.Background(), s.c, set, warmRequest{i, k})
			if err != nil {
				return fail(fmt.Errorf("warm-up: %w", err))
			}
			s.ref[i][k] = d
			all.WriteString(d)
		}
	}
	return s, digest([]byte(all.String())), nil
}

func (s *warmState) close(o *outcome) {
	s.c.close()
	s.web.close()
	if err := s.router.Close(); err != nil {
		o.problem("close router: %v", err)
	}
	if err := s.b.close(); err != nil {
		o.problem("close backend: %v", err)
	}
}

// waitReady waits until the router has probed its backend alive.
func (s *warmState) waitReady() error {
	var err error
	for try := 0; try < 1000; try++ {
		if _, err = s.c.get(context.Background(), s.web.url, "/readyz"); err == nil {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("router never became ready: %w", err)
}

// loop returns the op of a traced warm-path closed loop whose clients draw
// from streams seeded by seed; each op also reads its trace into spans.
func (s *warmState) loop(o *outcome, set []ring, seed int64, spans *spanTimes) func(c, i int) opResult {
	streams := make([]*warmStream, warmClients)
	for c := range streams {
		streams[c] = newWarmStream(seed, c, len(set))
	}
	return func(c, i int) opResult {
		req := streams[c].next()
		ids := &traceIDs{}
		ctx := context.WithValue(context.Background(), traceKey{}, ids)
		t0 := time.Now()
		d, _, err := sendWarm(ctx, s.c, set, req)
		lat := time.Since(t0)
		if err != nil {
			o.problem("op %d of client %d: %v", i, c, err)
			return opResult{lat: lat}
		}
		if want := s.ref[req.ring][req.kind]; d != want {
			o.problem("%s on ring %d: answer digest %s, warmed %s", kindNames[req.kind], req.ring, d, want)
			return opResult{lat: lat}
		}
		if err := spans.fetch(s.c, s.b.web.url, ids.backend); err != nil {
			o.problem("%v", err)
		}
		return opResult{lat: lat, ok: true, kind: kindNames[req.kind]}
	}
}

// tracedLayers runs a traced warm-path phase of dur and then the one-at-a-
// time probes, and sets the server stage, cache-hit, batcher, cluster and
// cert per-layer metrics.
func (s *warmState) tracedLayers(o *outcome, rc *runCtx, set []ring, dur time.Duration) error {
	r0, err := s.c.scrape(s.web.url)
	if err != nil {
		return err
	}
	m0, err := s.c.scrape(s.b.web.url)
	if err != nil {
		return err
	}
	spans := newSpanTimes()
	tp := measure(warmClients, dur, 0, s.loop(o, set, rc.seed, spans))
	m1, err := s.c.scrape(s.b.web.url)
	if err != nil {
		return err
	}
	r1, err := s.c.scrape(s.web.url)
	if err != nil {
		return err
	}
	o.attempted += len(tp.ops)
	o.failed += tp.failed()
	if misses := delta(m0, m1, "irshared_cache_misses_total"); misses != 0 {
		o.problem("the warm path lost its shape: %.0f cache misses in the traced phase", misses)
	}
	spans.fill(o, len(tp.ops))
	hits := delta(m0, m1, "irshared_cache_hits_total")
	o.layers["server.cache_hit_ratio"] = ratio(hits, hits+delta(m0, m1, "irshared_cache_misses_total"))
	runs := delta(m0, m1, "irshared_batch_runs_total")
	joins := delta(m0, m1, "irshared_batch_joins_total")
	o.layers["server.batch_join_ratio"] = ratio(joins, runs+joins)
	for _, st := range []struct{ metric, stage string }{
		{"cluster.place_ms", "router.place"},
		{"cluster.forward_ms", "router.forward"},
		{"cluster.cert_check_ms", "router.cert_check"},
	} {
		key := fmt.Sprintf("irrouter_stage_seconds_%%s{stage=%q}", st.stage)
		sum := delta(r0, r1, fmt.Sprintf(key, "sum"))
		n := delta(r0, r1, fmt.Sprintf(key, "count"))
		o.layers[st.metric] = ratio(sum*1000, n)
	}
	o.report["warm_traced_ops"] = len(tp.ops)
	return warmProbes(o, rc, s.c, s.b.web.url, set)
}

// warmProbes measures the router's proxy cost and the certificate cost on
// warm requests, one at a time: routed against direct for the same
// request, certified against plain direct ratio requests, and cert.Check
// on the certificates returned.
func warmProbes(o *outcome, rc *runCtx, routed *benchClient, backendURL string, set []ring) error {
	direct := newClient(backendURL, rc.seed)
	defer direct.close()
	ctx := context.Background()
	stream := newWarmStream(rc.seed+1, 0, len(set))
	var viaRouter, viaDirect []float64
	for i := 0; i < 200; i++ {
		req := stream.next()
		if req.kind == kindRatioCert {
			req.kind = kindRatio
		}
		for _, c := range []*benchClient{routed, direct} {
			t0 := time.Now()
			if _, _, err := sendWarm(ctx, c, set, req); err != nil {
				return err
			}
			if c == routed {
				viaRouter = append(viaRouter, ms(time.Since(t0)))
			} else {
				viaDirect = append(viaDirect, ms(time.Since(t0)))
			}
		}
	}
	o.layers["cluster.proxy_ms"] = median(viaRouter) - median(viaDirect)

	var plain, certified, check []float64
	for i := 0; i < 40; i++ {
		r := i % len(set)
		t0 := time.Now()
		if _, _, err := sendWarm(ctx, direct, set, warmRequest{r, kindRatio}); err != nil {
			return err
		}
		plain = append(plain, ms(time.Since(t0)))
		t0 = time.Now()
		_, resp, err := sendWarm(ctx, direct, set, warmRequest{r, kindRatioCert})
		if err != nil {
			return err
		}
		certified = append(certified, ms(time.Since(t0)))
		if resp.Certificate == nil {
			return fmt.Errorf("ratio with cert:true on ring %d came back without a certificate", r)
		}
		t0 = time.Now()
		if err := cert.Check(resp.Certificate); err != nil {
			return fmt.Errorf("certificate of ring %d: %w", r, err)
		}
		check = append(check, ms(time.Since(t0)))
	}
	o.layers["cert.build_ms"] = median(certified) - median(plain)
	o.layers["cert.check_ms"] = median(check)
	return nil
}
