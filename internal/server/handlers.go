package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/bottleneck"
	"repro/internal/cert"
	"repro/internal/cert/build"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/mechanism"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/scan"
	"repro/internal/sybil"
)

// Certification limits, tighter than the plain compute limits: a certificate
// carries per-pair Hall-condition flow witnesses for every evaluated split,
// so its size (and construction cost) grows with both the ring and the grid.
const (
	// maxCertRingSize caps the ring for any ?cert=1 request.
	maxCertRingSize = 512
	// maxCertSweepGrid caps the sweep grid for ?cert=1 — each of the grid+1
	// points gets a fully witnessed split certificate.
	maxCertSweepGrid = 512
)

// wantCert reports whether the request opted into certification, via either
// the body flag or the ?cert=1 query parameter.
func wantCert(r *http.Request, bodyFlag bool) bool {
	return bodyFlag || r.URL.Query().Get("cert") == "1"
}

// certify runs the trusted-side builder output through the solver-free
// checker, applying the test-only corruption hook first. The returned error
// means the server must answer cert_invalid rather than ship an unchecked
// certificate.
func (s *Server) certify(c cert.Checkable) error {
	if s.corruptCert != nil {
		s.corruptCert(c)
	}
	return cert.Check(c)
}

// statusClientClosed is nginx's convention for "client closed request";
// it never reaches the client (the connection is gone) but it keeps the
// logs and metrics honest about why the request ended.
const statusClientClosed = 499

// writeJSON writes a JSON response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError writes the uniform error body: a stable machine-readable code
// plus a human-readable message.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorResponse{Code: code, Message: msg})
}

// writeErrorDetail is writeError with underlying error text in Detail.
func writeErrorDetail(w http.ResponseWriter, status int, code, msg, detail string) {
	writeJSON(w, status, ErrorResponse{Code: code, Message: msg, Detail: detail})
}

// writeComputeError maps a computation error to a status: context errors
// become timeouts/client-gone; injected faults are transient by definition
// and map to a retryable 503 + Retry-After so chaos replays converge under
// client retries; contained panics surface as 500 internal_panic (also
// retryable — the panic poisoned one computation, not the process);
// everything else is a plain 500.
func writeComputeError(w http.ResponseWriter, r *http.Request, err error) {
	var pe *par.PanicError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, CodeTimeout, "computation exceeded the request timeout")
	case errors.Is(err, context.Canceled):
		writeError(w, statusClientClosed, CodeClientClosed, "client canceled")
	case errors.Is(err, fault.ErrInjected):
		retryAfter(w, time.Second)
		writeErrorDetail(w, http.StatusServiceUnavailable, CodeBusy, "transient fault; retry", err.Error())
	case errors.As(err, &pe):
		writeErrorDetail(w, http.StatusInternalServerError, CodeInternalPanic,
			"computation panicked; the panic was contained and the request may be retried",
			fmt.Sprint(pe.Value))
	default:
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
	}
}

// decodeBody parses the request body into v, rejecting unknown fields and
// trailing garbage so schema drift fails loudly on the client side too.
// When the request is traced, the parse is recorded as a "server.decode"
// stage span.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	_, sp := obs.Start(r.Context(), "server.decode")
	defer sp.End()
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErrorDetail(w, http.StatusBadRequest, CodeBadBody, "invalid request body", err.Error())
		return false
	}
	if dec.More() {
		writeErrorDetail(w, http.StatusBadRequest, CodeBadBody, "invalid request body", "trailing data")
		return false
	}
	return true
}

// writeResult writes a success body, recorded as the request's
// "server.write" stage span when traced.
func writeResult(w http.ResponseWriter, r *http.Request, v any) {
	_, sp := obs.Start(r.Context(), "server.write")
	writeJSON(w, http.StatusOK, v)
	sp.End()
}

// entryForWire builds the graph from its wire form and resolves the cache
// entry for its canonical key, recording the hit/miss both on the request's
// span and in the per-endpoint cache metrics.
func (s *Server) entryForWire(w http.ResponseWriter, r *http.Request, wg *WireGraph) (*cacheEntry, bool) {
	return s.entryForKeyed(w, r, wg, CanonicalKey)
}

// entryForKeyed is entryForWire under a caller-chosen key derivation —
// the mechanism-scoped endpoints pass mechKey so backends never share
// cached state (see mechanisms.go).
func (s *Server) entryForKeyed(w http.ResponseWriter, r *http.Request, wg *WireGraph, keyOf func(*graph.Graph) string) (*cacheEntry, bool) {
	g, err := wg.Build()
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadGraph, err.Error())
		return nil, false
	}
	if err := fault.Hit(r.Context(), fault.SiteCacheGet); err != nil {
		writeComputeError(w, r, err)
		return nil, false
	}
	entry, hit := s.cache.entryFor(keyOf(g), g)
	s.metrics.cacheLookup(r.URL.Path, hit)
	if sp := obs.FromContext(r.Context()); sp != nil {
		if hit {
			sp.AddInt("cache_hit", 1)
		} else {
			sp.AddInt("cache_miss", 1)
		}
	}
	return entry, true
}

func (s *Server) handleDecompose(w http.ResponseWriter, r *http.Request) {
	var req DecomposeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	engine, err := parseEngine(req.Engine)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadEngine, err.Error())
		return
	}
	entry, ok := s.entryForWire(w, r, &req.Graph)
	if !ok {
		return
	}
	ctx, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	cctx, csp := obs.Start(ctx, "server.compute")
	d, err := entry.decomposition(cctx, engine)
	csp.End()
	if err != nil {
		writeComputeError(w, r, err)
		return
	}
	resp := DecomposeResponse{
		Pairs:     make([]WirePair, len(d.Pairs)),
		Vertices:  make([]WireVertex, entry.g.N()),
		Signature: d.StructureSignature(),
	}
	for i, p := range d.Pairs {
		resp.Pairs[i] = WirePair{B: p.B, C: p.C, Alpha: EncodeRat(p.Alpha)}
	}
	for v := 0; v < entry.g.N(); v++ {
		resp.Vertices[v] = WireVertex{
			Index:   v,
			Label:   entry.g.Label(v),
			Weight:  EncodeRat(entry.g.Weight(v)),
			Class:   d.ClassOf(v).String(),
			Alpha:   EncodeRat(d.AlphaOf(v)),
			Utility: EncodeRat(d.Utility(entry.g, v)),
		}
	}
	writeResult(w, r, resp)
}

func (s *Server) handleAllocate(w http.ResponseWriter, r *http.Request) {
	var req AllocateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	engine, err := parseEngine(req.Engine)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadEngine, err.Error())
		return
	}
	m, ok := resolveWireMechanism(w, req.Mechanism)
	if !ok {
		return
	}
	if _, decomposes := m.(mechanism.Decomposer); !decomposes && req.Engine != "" && req.Engine != "auto" {
		writeError(w, http.StatusBadRequest, CodeBadEngine,
			fmt.Sprintf("engine selection applies to decomposition-based mechanisms, not %q", m.Name()))
		return
	}
	entry, ok := s.entryForMech(w, r, &req.Graph, m)
	if !ok {
		return
	}
	ctx, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	cctx, csp := obs.Start(ctx, "server.compute")
	a, err := entry.mechAllocation(cctx, m, engine)
	csp.End()
	if err != nil {
		writeComputeError(w, r, err)
		return
	}
	resp := AllocateResponse{Transfers: []WireTransfer{}, Utilities: make([]string, entry.g.N())}
	for _, e := range entry.g.Edges() {
		for _, dir := range [2][2]int{{e[0], e[1]}, {e[1], e[0]}} {
			if amt := a.Get(dir[0], dir[1]); !amt.IsZero() {
				resp.Transfers = append(resp.Transfers, WireTransfer{From: dir[0], To: dir[1], Amount: EncodeRat(amt)})
			}
		}
	}
	sortTransfers(resp.Transfers)
	for v := 0; v < entry.g.N(); v++ {
		resp.Utilities[v] = EncodeRat(a.Utility(v))
	}
	writeResult(w, r, resp)
}

// sortTransfers orders by (from, to) so the wire format is deterministic.
func sortTransfers(ts []WireTransfer) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && (ts[j].From < ts[j-1].From || (ts[j].From == ts[j-1].From && ts[j].To < ts[j-1].To)); j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

func (s *Server) handleUtilities(w http.ResponseWriter, r *http.Request) {
	var req UtilitiesRequest
	if !decodeBody(w, r, &req) {
		return
	}
	engine, err := parseEngine(req.Engine)
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadEngine, err.Error())
		return
	}
	entry, ok := s.entryForWire(w, r, &req.Graph)
	if !ok {
		return
	}
	ctx, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	cctx, csp := obs.Start(ctx, "server.compute")
	d, err := entry.decomposition(cctx, engine)
	csp.End()
	if err != nil {
		writeComputeError(w, r, err)
		return
	}
	us := d.Utilities(entry.g)
	total := numeric.Zero
	for _, u := range us {
		total = total.Add(u)
	}
	writeResult(w, r, UtilitiesResponse{
		Utilities:   encodeRats(us),
		Total:       EncodeRat(total),
		TotalWeight: EncodeRat(entry.g.TotalWeight()),
	})
}

func (s *Server) handleRatio(w http.ResponseWriter, r *http.Request) {
	var req RatioRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Grid < 0 || req.Grid > 4096 {
		writeError(w, http.StatusBadRequest, CodeBadGrid, "grid outside [0, 4096]")
		return
	}
	m, ok := resolveWireMechanism(w, req.Mechanism)
	if !ok {
		return
	}
	entry, ok := s.entryForMech(w, r, &req.Graph, m)
	if !ok {
		return
	}
	if !entry.g.IsRing() {
		writeError(w, http.StatusBadRequest, CodeNotRing, "ratio requires a ring graph")
		return
	}
	if req.V < 0 || req.V >= entry.g.N() {
		writeError(w, http.StatusBadRequest, CodeBadAgent, fmt.Sprintf("agent %d out of range [0, %d)", req.V, entry.g.N()))
		return
	}
	withCert := wantCert(r, req.Cert)
	if withCert && !mechCertifiable(m) {
		writeError(w, http.StatusBadRequest, CodeCertLimit,
			fmt.Sprintf("certificates are only available for certifiable mechanisms (bd), not %q", m.Name()))
		return
	}
	if withCert && entry.g.N() > maxCertRingSize {
		writeError(w, http.StatusBadRequest, CodeCertLimit,
			fmt.Sprintf("certificates are limited to rings of at most %d vertices, got %d", maxCertRingSize, entry.g.N()))
		return
	}
	ctx, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	if _, exact := m.(mechanism.RingOptimizer); !exact {
		s.ratioGeneric(ctx, w, r, entry, m, &req)
		return
	}
	// Micro-batch: concurrent ratio requests for the same (instance, agent,
	// grid) share one optimizer run over the entry's shared solver state.
	// The computation runs detached from any single request (computeBase),
	// so its solver spans cannot hang off a request's trace; instead the
	// batch opens its own collector trace and every participant's compute
	// span records that trace's id plus whether it joined or opened the run.
	cctx, csp := obs.Start(ctx, "server.compute")
	key := fmt.Sprintf("%s|v=%d|grid=%d", entry.key, req.V, req.Grid)
	val, joined, err := s.batch.do(cctx, key, s.computeBase, func(runCtx context.Context) (any, error) {
		if err := fault.Hit(runCtx, fault.SiteServerBatch); err != nil {
			return nil, err
		}
		var batchTrace uint64
		if s.collector != nil {
			tr := s.collector.NewTrace("/v1/ratio#compute")
			batchTrace = tr.ID()
			runCtx = tr.Context(runCtx)
			defer tr.Finish()
		}
		in, err := entry.instance(runCtx, req.V)
		if err != nil {
			return nil, err
		}
		opt, err := in.OptimizeCtx(runCtx, core.OptimizeOptions{Grid: req.Grid})
		if err != nil {
			return nil, err
		}
		return ratioBatchResult{opt: opt, trace: batchTrace}, nil
	})
	if csp != nil {
		if joined {
			csp.AddInt("batch_joined", 1)
		} else {
			csp.AddInt("batch_opened", 1)
		}
		if err == nil {
			if rb := val.(ratioBatchResult); rb.trace != 0 {
				csp.SetAttr("batch_trace", strconv.FormatUint(rb.trace, 10))
			}
		}
	}
	csp.End()
	if err != nil {
		writeComputeError(w, r, err)
		return
	}
	opt := val.(ratioBatchResult).opt
	in, err := entry.instance(ctx, req.V) // cached by the batch computation
	if err != nil {
		writeComputeError(w, r, err)
		return
	}
	resp := RatioResponse{
		Honest: EncodeRat(in.HonestU),
		BestW1: EncodeRat(opt.BestW1),
		BestU:  EncodeRat(opt.BestU),
		Ratio:  EncodeRat(opt.Ratio),
		LeqTwo: opt.Ratio.LessEq(numeric.Two),
		Evals:  opt.Evals,
		Pieces: len(opt.Pieces),
	}
	if withCert {
		// Certification happens outside the batch: the optimizer answer is
		// shared, the certificate is per-request. The builder re-derives every
		// quantity exactly and the solver-free checker gates the response.
		rc, err := build.Ratio(ctx, in, opt)
		if err == nil {
			err = s.certify(rc)
		}
		if err != nil {
			if ctx.Err() != nil {
				writeComputeError(w, r, ctx.Err())
				return
			}
			writeErrorDetail(w, http.StatusInternalServerError, CodeCertInvalid,
				"certificate failed the server's solver-free self-check", err.Error())
			return
		}
		resp.Certificate = rc
	}
	writeResult(w, r, resp)
}

// ratioBatchResult is the shared answer of one batched ratio computation:
// the optimizer result plus the id of the collector trace that recorded the
// run (0 when tracing is disabled).
type ratioBatchResult struct {
	opt   *core.OptResult
	trace uint64
}

// ratioGeneric answers /v1/ratio for a mechanism without an exact ring
// optimizer: the empirical best over the sweep grid (req.Grid, default 64),
// computed by the generic mechanism sweep. Requests micro-batch on the
// mechanism-scoped entry key exactly like the bd path, so concurrent
// identical requests still share one run.
func (s *Server) ratioGeneric(ctx context.Context, w http.ResponseWriter, r *http.Request, entry *cacheEntry, m mechanism.Mechanism, req *RatioRequest) {
	cctx, csp := obs.Start(ctx, "server.compute")
	key := fmt.Sprintf("%s|v=%d|grid=%d", entry.key, req.V, req.Grid)
	val, joined, err := s.batch.do(cctx, key, s.computeBase, func(runCtx context.Context) (any, error) {
		if err := fault.Hit(runCtx, fault.SiteServerBatch); err != nil {
			return nil, err
		}
		res, err := mechanism.RingSweep(runCtx, m, entry.g, req.V, sybil.SweepOptions{Grid: req.Grid})
		if err != nil {
			return nil, err
		}
		if res.Partial {
			// The batch deadline cut the sweep short; a grid ratio has no
			// resume protocol (that's /v1/sweep), so report the timeout.
			return nil, context.DeadlineExceeded
		}
		return res, nil
	})
	if csp != nil {
		if joined {
			csp.AddInt("batch_joined", 1)
		} else {
			csp.AddInt("batch_opened", 1)
		}
	}
	csp.End()
	if err != nil {
		writeComputeError(w, r, err)
		return
	}
	res := val.(*sybil.SweepResult)
	writeResult(w, r, RatioResponse{
		Honest: EncodeRat(res.Honest),
		BestW1: EncodeRat(res.BestW1),
		BestU:  EncodeRat(res.BestU),
		Ratio:  EncodeRat(res.Ratio),
		LeqTwo: res.Ratio.LessEq(numeric.Two),
		Evals:  len(res.Points),
	})
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeBody(w, r, &req) {
		return
	}
	entry, m, grid, ok := s.sweepTarget(w, r, &req.Graph, req.V, req.Grid, req.Mechanism)
	if !ok {
		return
	}
	withCert := wantCert(r, req.Cert)
	if withCert && !mechCertifiable(m) {
		writeError(w, http.StatusBadRequest, CodeCertLimit,
			fmt.Sprintf("certificates are only available for certifiable mechanisms (bd), not %q", m.Name()))
		return
	}
	if withCert {
		if entry.g.N() > maxCertRingSize {
			writeError(w, http.StatusBadRequest, CodeCertLimit,
				fmt.Sprintf("certificates are limited to rings of at most %d vertices, got %d", maxCertRingSize, entry.g.N()))
			return
		}
		if grid > maxCertSweepGrid {
			writeError(w, http.StatusBadRequest, CodeCertLimit,
				fmt.Sprintf("sweep certificates are limited to grids of at most %d, got %d", maxCertSweepGrid, grid))
			return
		}
	}
	start := 0
	if req.Resume != "" {
		tok, err := decodeResumeToken(req.Resume)
		if err != nil {
			writeErrorDetail(w, http.StatusBadRequest, CodePartialResult, "invalid resume token", err.Error())
			return
		}
		if tok.Key != entry.key || tok.V != req.V || tok.Grid != grid {
			writeError(w, http.StatusBadRequest, CodePartialResult,
				"resume token was minted for a different graph, agent, grid, or mechanism")
			return
		}
		if tok.Next < 0 || tok.Next > grid {
			writeError(w, http.StatusBadRequest, CodePartialResult, "resume token index out of range")
			return
		}
		start = tok.Next
	}
	ctx, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	cctx, csp := obs.Start(ctx, "server.compute")
	resp, err := s.sweep(cctx, entry, m, req.V, grid, scan.Options[sybil.SweepPoint]{Start: start, Workers: par.Workers(0)}, withCert)
	csp.End()
	if err != nil {
		var ce *certError
		if errors.As(err, &ce) {
			writeErrorDetail(w, http.StatusInternalServerError, CodeCertInvalid,
				"certificate failed the server's solver-free self-check", ce.err.Error())
			return
		}
		writeComputeError(w, r, err)
		return
	}
	writeResult(w, r, resp)
}

// sweepTarget validates what a sweep runs on — grid, mechanism, ring
// graph, agent — for /v1/sweep and sweep jobs alike, resolving the grid
// default and the mechanism-scoped cache entry.
func (s *Server) sweepTarget(w http.ResponseWriter, r *http.Request, wg *WireGraph, v, grid int, mech string) (*cacheEntry, mechanism.Mechanism, int, bool) {
	if grid == 0 {
		grid = 64
	}
	if grid < 0 || grid > 4096 {
		writeError(w, http.StatusBadRequest, CodeBadGrid, "grid outside [1, 4096]")
		return nil, nil, 0, false
	}
	m, ok := resolveWireMechanism(w, mech)
	if !ok {
		return nil, nil, 0, false
	}
	entry, ok := s.entryForMech(w, r, wg, m)
	if !ok {
		return nil, nil, 0, false
	}
	if !entry.g.IsRing() {
		writeError(w, http.StatusBadRequest, CodeNotRing, "sweep requires a ring graph")
		return nil, nil, 0, false
	}
	if v < 0 || v >= entry.g.N() {
		writeError(w, http.StatusBadRequest, CodeBadAgent, fmt.Sprintf("agent %d out of range [0, %d)", v, entry.g.N()))
		return nil, nil, 0, false
	}
	return entry, m, grid, true
}

// certError marks a certificate construction or self-check failure so
// handleSweep can answer cert_invalid instead of a generic 500.
type certError struct{ err error }

func (e *certError) Error() string { return "certificate self-check: " + e.err.Error() }
func (e *certError) Unwrap() error { return e.err }

// sweep evaluates the split-utility curve of mechanism m on the entry as
// one sybil.Sweep: native sweepers (bd) through the entry's cached
// core.Instance — the same code path as the library sweep, point for
// point, so API answers stay bit-identical to in-process results — and
// other mechanisms through their generic split kernel against the entry's
// cached honest allocation. opts carries the run: an inline request starts
// at its resume index (nonzero when resuming from a partial result) and
// evaluates in parallel; a durable sweep job resumes after its
// checkpointed prefix and checkpoints every point. A sweep cut short by
// cancellation or the request deadline returns its completed prefix and a
// resume token (minted against the mechanism-scoped entry key) instead of
// an error.
//
// With withCert set (bd only — the handler rejects other mechanisms with
// cert_limit), a completed (non-partial, non-empty) segment is additionally
// certified: the builder re-derives every point with flow witnesses and
// cert.Check gates the answer. A partial segment skips the certificate —
// its context is already at the deadline, and the client resumes anyway;
// the final resumed segment carries the certificate of its covered indices.
func (s *Server) sweep(ctx context.Context, entry *cacheEntry, m mechanism.Mechanism, v, grid int, opts scan.Options[sybil.SweepPoint], withCert bool) (*SweepResponse, error) {
	var sc sybil.GridScan
	var honest numeric.Rat
	var in *core.Instance
	if _, native := m.(mechanism.RingSweeper); native {
		var err error
		if in, err = entry.instance(ctx, v); err != nil {
			return nil, err
		}
		sc, honest = sybil.GridScan{W: in.W(), Grid: grid, Split: sybil.InstanceSplit(in)}, in.HonestU
	} else {
		a, err := entry.mechAllocation(ctx, m, bottleneck.EngineAuto)
		if err != nil {
			return nil, err
		}
		sc, honest = sybil.GridScan{W: entry.g.Weight(v), Grid: grid, Split: mechanism.Splitter(m, entry.g, v)}, a.Utility(v)
	}
	res, err := sybil.Sweep(ctx, sc, honest, opts)
	if err != nil {
		return nil, err
	}
	resp := &SweepResponse{Points: make([]WireSweepPoint, len(res.Points))}
	for i, p := range res.Points {
		resp.Points[i] = WireSweepPoint{W1: EncodeRat(p.W1), U: EncodeRat(p.U)}
	}
	resp.BestW1, resp.BestU = EncodeRat(res.BestW1), EncodeRat(res.BestU)
	resp.Honest = EncodeRat(res.Honest)
	resp.Ratio = EncodeRat(res.Ratio)
	if res.Start > 0 || res.Partial {
		resp.StartIndex = res.Start
		resp.NextIndex = res.NextIndex
	}
	if res.Partial {
		resp.Partial = true
		resp.ResumeToken = encodeResumeToken(resumeToken{Key: entry.key, V: v, Grid: grid, Next: res.NextIndex})
	}
	if withCert && !res.Partial && len(res.Points) > 0 {
		sc, err := build.Sweep(ctx, in, res, grid)
		if err == nil {
			err = s.certify(sc)
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, &certError{err}
		}
		resp.Certificate = sc
	}
	return resp, nil
}
