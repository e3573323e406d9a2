package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cert/enum"
	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/mechanism"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/scan"
	"repro/internal/sybil"
)

// The job-kind table. Every durable job kind is one row: how a submission
// of that kind is validated into the spec persisted with the job (and its
// content address), and how a persisted spec is read back. The spec does
// the rest (jobSpec): its point count, its checkpoint decoding, and its
// run — a scan.Run over the kind's scan, resumed after the checkpointed
// prefix and checkpointing every new point. handleJobSubmit, runJob,
// wireJob and the list filter all go through this table and nothing else.
var jobKinds = map[string]jobKind{
	"sweep":      {submitSweepJob, parseSpec[sweepJobSpec]},
	"enumerate":  {submitEnumJob, parseSpec[enumJobSpec]},
	"tournament": {submitTournamentJob, parseSpec[tournamentJobSpec]},
	"ksybil":     {submitScenarioJob, parseSpec[scenarioJobSpec]},
	"coalition":  {submitScenarioJob, parseSpec[scenarioJobSpec]},
	"topology":   {submitScenarioJob, parseSpec[scenarioJobSpec]},
}

// jobKind is one row of the job-kind table.
type jobKind struct {
	// submit validates the kind's part of a submission exactly like the
	// corresponding inline endpoint, answering the client itself on
	// failure, and returns the spec to persist and its content address.
	submit func(s *Server, w http.ResponseWriter, r *http.Request, req *JobSubmitRequest) (jobSpec, string, bool)
	// parse reads a persisted spec back.
	parse func(raw []byte) (jobSpec, error)
}

// jobSpec is a persisted job specification: the validated request with
// every default resolved. It alone determines the job's scan, point count
// and checkpoint encoding, so a job resumes identically in any process.
type jobSpec interface {
	// total is the job's point count.
	total() int
	// check decodes checkpoint point i exactly as a resumed run reads it.
	check(i int, p jobs.Point) error
	// run evaluates the job's scan from start after the checkpointed
	// prefix, checkpointing every new point through ckpt (nil for an
	// inline request), and returns the final wire body. Because every
	// quantity is exact and serialized canonically, the body is
	// byte-identical however often the job was interrupted — and equal to
	// the inline endpoint's answer. A run cut short by ctx returns an
	// error, never a partial body.
	run(ctx context.Context, s *Server, start int, prefix []jobs.Point, ckpt jobs.CheckpointFunc) (any, error)
}

// parseSpec decodes a persisted spec of type T.
func parseSpec[T any, PT interface {
	*T
	jobSpec
}](raw []byte) (jobSpec, error) {
	spec := PT(new(T))
	if err := json.Unmarshal(raw, spec); err != nil {
		return nil, err
	}
	return spec, nil
}

// pointCodec is a job kind's checkpoint encoding: how one scan point is
// written to the jobs.Point the WAL persists (encode), and read back with
// its shape checked against the spec (parse).
type pointCodec[P any] struct {
	encode func(i int, p P) (jobs.Point, error)
	parse  func(p jobs.Point) (P, error)
}

// maxPointLen bounds one checkpoint point (both fields), far above any
// point a job writes — a handful of rationals, each within maxRatLen — so
// a hostile seed cannot make its decoding expensive.
const maxPointLen = 64 << 10

// decode reads checkpoint point i, checking its size and its shape against
// the spec. A resumed run reads its prefix through decode alone, so a
// checkpoint an older server accepted — a seed in a non-canonical spelling
// such as "2/4" — still finishes, re-encoded canonically in the result.
func (c pointCodec[P]) decode(i int, p jobs.Point) (P, error) {
	var v P
	var err error
	if n := len(p.W1) + len(p.U); n > maxPointLen {
		err = fmt.Errorf("point of %d bytes exceeds %d", n, maxPointLen)
	} else {
		v, err = c.parse(p)
	}
	if err != nil {
		return v, fmt.Errorf("checkpoint %d: %w", i, err)
	}
	return v, nil
}

// check validates a seeded checkpoint point i of a new submission: it must
// decode, and be exactly the bytes encode writes for the point it decodes
// to, so a seed re-enters the job as the kind itself would have
// checkpointed it.
func (c pointCodec[P]) check(i int, p jobs.Point) error {
	v, err := c.decode(i, p)
	if err != nil {
		return err
	}
	q, err := c.encode(i, v)
	if err == nil && q != p {
		err = fmt.Errorf("point is not in canonical form")
	}
	if err != nil {
		return fmt.Errorf("checkpoint %d: %w", i, err)
	}
	return nil
}

// resume returns the scan options of a run from start: the checkpointed
// prefix decoded, and — for a job — every new point checkpointed through
// ckpt, which makes the run sequential and ascending.
func (c pointCodec[P]) resume(start int, prefix []jobs.Point, ckpt jobs.CheckpointFunc) (scan.Options[P], error) {
	opts := scan.Options[P]{Start: start, Prefix: make([]P, len(prefix))}
	for i, p := range prefix {
		var err error
		if opts.Prefix[i], err = c.decode(i, p); err != nil {
			return opts, err
		}
	}
	if ckpt != nil {
		opts.OnPoint = func(i int, p P) error {
			pt, err := c.encode(i, p)
			if err != nil {
				return err
			}
			return ckpt(i, []jobs.Point{pt})
		}
	}
	return opts, nil
}

// scanRunner runs one job kind's scan under the given options: the scan's
// own Run method for the scenario kinds (which records the scenario span),
// runAt for the others.
type scanRunner[P any] func(ctx context.Context, opts scan.Options[P]) (*scan.Result[P], error)

// runAt is scan.Run of sc under a fault site ("" = none).
func runAt[P any](sc scan.Scan[P], site string) scanRunner[P] {
	return func(ctx context.Context, opts scan.Options[P]) (*scan.Result[P], error) {
		opts.Site = site
		return scan.Run(ctx, sc, opts)
	}
}

// runScan is the run of every job kind but sweep (whose run is the inline
// sweep path, see sweepJobSpec.run): the kind's scan from start after the
// checkpointed prefix, to its complete point list.
func runScan[P any](ctx context.Context, run scanRunner[P], c pointCodec[P], start int, prefix []jobs.Point, ckpt jobs.CheckpointFunc) (*scan.Result[P], error) {
	opts, err := c.resume(start, prefix, ckpt)
	if err != nil {
		return nil, err
	}
	res, err := run(ctx, opts)
	if err != nil {
		return nil, err
	}
	if res.Partial {
		return nil, cutShort(ctx)
	}
	return res, nil
}

// cutShort is the error of a run a context error cut short: the job is
// requeued (or the request answered 504/499), never finished partially.
func cutShort(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.DeadlineExceeded
}

// runInline answers an inline request for a job kind's scan (/v1/scenario,
// /v1/tournament): the spec's own run with no checkpoint — the code path of
// the durable job, so a job's Result is byte-identical to the inline body.
func (s *Server) runInline(w http.ResponseWriter, r *http.Request, spec jobSpec) {
	ctx, release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	cctx, csp := obs.Start(ctx, "server.compute")
	resp, err := spec.run(cctx, s, 0, nil, nil)
	csp.End()
	if err != nil {
		writeComputeError(w, r, err)
		return
	}
	writeResult(w, r, resp)
}

// seedPoints validates a submission checkpoint against the job's spec and
// converts it to the store's seed form. A nil checkpoint is a plain
// submission. Every point must pass the kind's check (decodable, right
// shape, canonical bytes), so a seed a resumed run could not read back is
// answered 400 here instead of failing the job later.
func seedPoints(w http.ResponseWriter, ck *JobCheckpoint, spec jobSpec) ([]jobs.Point, bool) {
	if ck == nil {
		return nil, true
	}
	if ck.NextIndex != len(ck.Points) {
		writeError(w, http.StatusBadRequest, CodeBadBody,
			fmt.Sprintf("checkpoint next_index %d must equal len(points) %d", ck.NextIndex, len(ck.Points)))
		return nil, false
	}
	if total := spec.total(); len(ck.Points) > total {
		writeError(w, http.StatusBadRequest, CodeBadBody,
			fmt.Sprintf("checkpoint carries %d points but the job has only %d", len(ck.Points), total))
		return nil, false
	}
	pts := make([]jobs.Point, len(ck.Points))
	for i, p := range ck.Points {
		pts[i] = jobs.Point{W1: p.W1, U: p.U}
		if err := spec.check(i, pts[i]); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadBody, err.Error())
			return nil, false
		}
	}
	return pts, true
}

// withJobs guards the /v1/jobs routes: without a data dir the durable jobs
// API answers 501 jobs_disabled.
func (s *Server) withJobs(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.jobSched == nil {
			writeError(w, http.StatusNotImplemented, CodeJobsDisabled, "durable jobs are disabled: start the server with -data-dir")
			return
		}
		h(w, r)
	}
}

// handleJobSubmit is POST /v1/jobs: validate exactly like the corresponding
// inline endpoint, then hand the work to the durable scheduler instead of
// computing inline. The submission is fsync'd before the response: an
// acknowledged job survives any crash and is recovered — checkpointed
// prefix intact — on the next boot.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobSubmitRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Kind == "" {
		req.Kind = "sweep"
	}
	kind, ok := jobKinds[req.Kind]
	if !ok {
		writeError(w, http.StatusBadRequest, CodeBadBody, fmt.Sprintf("unknown job kind %q (want sweep, enumerate, tournament, ksybil, coalition, or topology)", req.Kind))
		return
	}
	spec, key, ok := kind.submit(s, w, r, &req)
	if !ok {
		return
	}
	seed, ok := seedPoints(w, req.Checkpoint, spec)
	if !ok {
		return
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	rec, enqueued, err := s.jobSched.Submit(r.Context(), jobs.Submission{
		Key:      key,
		Kind:     req.Kind,
		Spec:     raw,
		Priority: req.Priority,
		Seed:     seed,
	})
	if err != nil {
		writeComputeError(w, r, err)
		return
	}
	status := http.StatusAccepted
	if !enqueued {
		status = http.StatusOK
	}
	writeJSON(w, status, JobSubmitResponse{Job: wireJob(rec, false), Deduped: !enqueued})
}

// runJob is the scheduler's runner for every kind: read the persisted spec
// back through the job-kind table and run it from the record's checkpoint.
func (s *Server) runJob(ctx context.Context, rec *jobs.Record, ckpt jobs.CheckpointFunc) ([]byte, error) {
	kind, ok := jobKinds[rec.Kind]
	if !ok {
		return nil, fmt.Errorf("unknown job kind %q", rec.Kind)
	}
	spec, err := kind.parse(rec.Spec)
	if err != nil {
		return nil, fmt.Errorf("corrupt job spec: %w", err)
	}
	if s.collector != nil {
		tr := s.collector.NewTrace("jobs.run")
		ctx = tr.Context(ctx)
		defer tr.Finish()
	}
	ctx, span := obs.Start(ctx, "jobs."+rec.Kind)
	defer span.End()
	if span != nil {
		span.SetAttr("job", rec.ID)
		span.SetAttr("total", strconv.Itoa(spec.total()))
		if rec.NextIndex > 0 {
			span.SetAttr("resume_from", strconv.Itoa(rec.NextIndex))
		}
	}
	body, err := spec.run(ctx, s, rec.NextIndex, rec.Points, ckpt)
	if err != nil {
		return nil, err
	}
	return json.Marshal(body)
}

// jobKey is the content address of one sweep job: the canonical instance
// key plus the sweep parameters. Two submissions describing the same sweep
// — whatever spelling their graphs arrived in — dedupe to one job. The
// instance key is the mechanism-scoped entry key (mechKey), so sweeps of
// the same graph under different mechanisms are distinct jobs, while bd
// submissions keep their pre-registry addresses (bd entries use the bare
// canonical key) and still dedupe against jobs persisted before mechanisms
// existed.
func jobKey(instanceKey string, v, grid int) string {
	return fmt.Sprintf("%s|v=%d|grid=%d|sweep", instanceKey, v, grid)
}

// submitSweepJob validates a kind "sweep" job like /v1/sweep.
func submitSweepJob(s *Server, w http.ResponseWriter, r *http.Request, req *JobSubmitRequest) (jobSpec, string, bool) {
	entry, m, grid, ok := s.sweepTarget(w, r, &req.Graph, req.V, req.Grid, req.Mechanism)
	if !ok {
		return nil, "", false
	}
	spec := &sweepJobSpec{Graph: req.Graph, V: req.V, Grid: grid, Mechanism: specMechanism(m)}
	return spec, jobKey(entry.key, req.V, grid), true
}

func (spec *sweepJobSpec) total() int { return spec.Grid + 1 }

// Sweep-job checkpoints are the sweep's own points: (w1, u) in canonical
// rational form.
var sweepCodec = pointCodec[sybil.SweepPoint]{
	encode: func(_ int, p sybil.SweepPoint) (jobs.Point, error) {
		return jobs.Point{W1: EncodeRat(p.W1), U: EncodeRat(p.U)}, nil
	},
	parse: func(p jobs.Point) (sybil.SweepPoint, error) {
		w1, err := DecodeRat(p.W1)
		if err != nil {
			return sybil.SweepPoint{}, fmt.Errorf("corrupt w1: %w", err)
		}
		u, err := DecodeRat(p.U)
		if err != nil {
			return sybil.SweepPoint{}, fmt.Errorf("corrupt u: %w", err)
		}
		return sybil.SweepPoint{W1: w1, U: u}, nil
	},
}

func (spec *sweepJobSpec) check(i int, p jobs.Point) error { return sweepCodec.check(i, p) }

// run is the inline /v1/sweep path (Server.sweep) over the cached entry,
// resumed after the checkpoint: the final Result is bit-identical to the
// /v1/sweep response of an uninterrupted run.
func (spec *sweepJobSpec) run(ctx context.Context, s *Server, start int, prefix []jobs.Point, ckpt jobs.CheckpointFunc) (any, error) {
	m, err := mechanism.Get(spec.Mechanism)
	if err != nil {
		return nil, fmt.Errorf("job spec mechanism: %w", err)
	}
	g, err := spec.Graph.Build()
	if err != nil {
		return nil, fmt.Errorf("job spec graph: %w", err)
	}
	entry, hit := s.cache.entryFor(mechKey(g, m), g)
	s.metrics.cacheLookup("/v1/jobs#run", hit)
	opts, err := sweepCodec.resume(start, prefix, ckpt)
	if err != nil {
		return nil, err
	}
	resp, err := s.sweep(ctx, entry, m, spec.V, spec.Grid, opts, false)
	if err != nil {
		return nil, err
	}
	if resp.Partial {
		return nil, cutShort(ctx)
	}
	return resp, nil
}

// Submission caps of enumerate jobs, tighter than the enum package's own
// sanity bounds: a durable job is still served by the shared worker pool,
// so one submission must not demand days of certification work.
const (
	maxEnumN      = 8
	maxEnumLevels = 4
)

// enumJobKey is the content address of one enumerate job: the resolved
// lattice bounds and optimizer grid. Eps only tunes frontier reporting, not
// the certified work, yet it changes the final Summary — so it is part of
// the address too.
func enumJobKey(spec *enumJobSpec) string {
	return fmt.Sprintf("enum|n=%d-%d|levels=%d|grid=%d|eps=%s|enumerate",
		spec.MinN, spec.MaxN, spec.Levels, spec.Grid, spec.Eps)
}

// submitEnumJob validates a kind "enumerate" job. The lattice is walked
// once here — cheap at the allowed bounds — to resolve defaults, reject
// explosive requests, and pin the total instance count into the persisted
// spec.
func submitEnumJob(s *Server, w http.ResponseWriter, r *http.Request, req *JobSubmitRequest) (jobSpec, string, bool) {
	var er EnumJobRequest
	if req.Enum != nil {
		er = *req.Enum
	}
	eps := numeric.New(1, 2)
	if er.Eps != "" {
		var err error
		if eps, err = DecodeRat(er.Eps); err != nil || eps.Sign() <= 0 {
			writeError(w, http.StatusBadRequest, CodeBadBody, fmt.Sprintf("enum.eps %q is not a positive rational", er.Eps))
			return nil, "", false
		}
	}
	if er.Grid < 0 || er.Grid > 4096 {
		writeError(w, http.StatusBadRequest, CodeBadGrid, "enum.grid outside [0, 4096]")
		return nil, "", false
	}
	opts := enum.Options{MinN: er.MinN, MaxN: er.MaxN, Levels: er.Levels, Grid: er.Grid, Eps: eps}
	specs, err := enum.Enumerate(opts)
	if err != nil {
		writeErrorDetail(w, http.StatusBadRequest, CodeBadBody, "invalid enumeration bounds", err.Error())
		return nil, "", false
	}
	opts = opts.Resolved()
	if opts.MaxN > maxEnumN || opts.Levels > maxEnumLevels {
		writeError(w, http.StatusBadRequest, CodeCertLimit,
			fmt.Sprintf("enumeration jobs are limited to max_n ≤ %d and levels ≤ %d", maxEnumN, maxEnumLevels))
		return nil, "", false
	}
	spec := &enumJobSpec{
		MinN:   opts.MinN,
		MaxN:   opts.MaxN,
		Levels: opts.Levels,
		Grid:   opts.Grid,
		Eps:    EncodeRat(eps),
		Total:  len(specs),
	}
	return spec, enumJobKey(spec), true
}

// handleJobGet is GET /v1/jobs/{id}: full job state including the
// checkpointed partial points and, once done, the final sweep result.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.jobStore.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeNotFound, "no such job")
		return
	}
	writeResult(w, r, wireJob(rec, true))
}

// handleJobList is GET /v1/jobs: jobs in submission order, paginated by an
// opaque cursor (the last job's sequence number) and optionally filtered by
// state.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var opts jobs.ListOptions
	if c := q.Get("cursor"); c != "" {
		cur, err := strconv.ParseUint(c, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, CodeBadBody, "cursor must be an unsigned integer")
			return
		}
		opts.AfterSeq = cur
	}
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, CodeBadBody, "limit must be a positive integer")
			return
		}
		opts.Limit = n
	}
	if st := q.Get("state"); st != "" {
		state := jobs.State(st)
		switch state {
		case jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCanceled:
			opts.State = state
		default:
			writeError(w, http.StatusBadRequest, CodeBadBody, fmt.Sprintf("unknown state %q", st))
			return
		}
	}
	if k := q.Get("kind"); k != "" {
		if _, ok := jobKinds[k]; !ok {
			writeError(w, http.StatusBadRequest, CodeBadBody, fmt.Sprintf("unknown kind %q", k))
			return
		}
		opts.Kind = k
	}
	recs, next := s.jobStore.List(opts)
	resp := JobListResponse{Jobs: make([]WireJob, len(recs)), NextCursor: next}
	for i, rec := range recs {
		resp.Jobs[i] = wireJob(rec, false)
	}
	writeResult(w, r, resp)
}

// handleJobCancel is DELETE /v1/jobs/{id}: a queued job cancels
// immediately; a running one has its context canceled and transitions once
// the worker unwinds (poll GET until state settles).
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	rec, err := s.jobSched.Cancel(r.Context(), r.PathValue("id"))
	switch {
	case errors.Is(err, jobs.ErrNotFound):
		writeError(w, http.StatusNotFound, CodeNotFound, "no such job")
		return
	case errors.Is(err, jobs.ErrTerminal):
		writeError(w, http.StatusConflict, CodeJobTerminal, "job already reached a terminal state")
		return
	case err != nil:
		writeComputeError(w, r, err)
		return
	}
	writeResult(w, r, wireJob(rec, false))
}

// wireJob renders a job record for the API. detail additionally includes
// the checkpointed points (the list view stays light).
func wireJob(rec *jobs.Record, detail bool) WireJob {
	j := WireJob{
		ID:         rec.ID,
		Kind:       rec.Kind,
		State:      string(rec.State),
		Attempt:    rec.Attempt,
		Priority:   rec.Priority,
		Error:      rec.Error,
		NextIndex:  rec.NextIndex,
		Result:     json.RawMessage(rec.Result),
		CreatedAt:  rec.CreatedUnixNano,
		StartedAt:  rec.StartedUnixNano,
		FinishedAt: rec.FinishedUnixNano,
	}
	if kind, ok := jobKinds[rec.Kind]; ok {
		if spec, err := kind.parse(rec.Spec); err == nil {
			j.TotalPoints = spec.total()
		}
	}
	if detail {
		j.Points = make([]WireSweepPoint, len(rec.Points))
		for i, p := range rec.Points {
			j.Points[i] = WireSweepPoint{W1: p.W1, U: p.U}
		}
	}
	return j
}

// Enumerate-job checkpoints reuse the sweep Point shape: W1 carries the
// instance key ("r5:3,1,2,1,5"), U the certified ratio — or, when the
// instance failed certification, its error prefixed with "!" (keys and
// canonical ratios never start with '!', so the encoding is unambiguous).
var enumCodec = pointCodec[enum.Outcome]{
	encode: func(_ int, out enum.Outcome) (jobs.Point, error) {
		u := out.Ratio
		if out.Err != "" {
			u = "!" + out.Err
		}
		return jobs.Point{W1: out.Key, U: u}, nil
	},
	parse: func(p jobs.Point) (enum.Outcome, error) {
		out := enum.Outcome{Key: p.W1}
		if strings.HasPrefix(p.U, "!") {
			out.Err = p.U[1:]
		} else {
			out.Ratio = p.U
		}
		return out, nil
	},
}

func (spec *enumJobSpec) total() int                      { return spec.Total }
func (spec *enumJobSpec) check(i int, p jobs.Point) error { return enumCodec.check(i, p) }

// run walks the deterministic instance list of the spec, certifying each
// instance (solve → build certificate → solver-free cert.Check). The
// enumeration order is fixed (enum.Enumerate), so instance i means the same
// ring in every process that ever resumes this job; the Result is the
// enum.Summary over all outcomes. Per-instance certification failures are
// recorded in the summary, not turned into job failures — the whole point
// of the job is to find them.
func (spec *enumJobSpec) run(ctx context.Context, _ *Server, start int, prefix []jobs.Point, ckpt jobs.CheckpointFunc) (any, error) {
	eps, err := DecodeRat(spec.Eps)
	if err != nil {
		return nil, fmt.Errorf("corrupt job spec eps: %w", err)
	}
	specs, err := enum.Enumerate(enum.Options{
		MinN: spec.MinN, MaxN: spec.MaxN, Levels: spec.Levels, Grid: spec.Grid, Eps: eps,
	})
	if err != nil {
		return nil, fmt.Errorf("job spec bounds: %w", err)
	}
	if len(specs) != spec.Total {
		return nil, fmt.Errorf("enumeration drifted: spec pinned %d instances, lattice walk produced %d", spec.Total, len(specs))
	}
	res, err := runScan(ctx, runAt[enum.Outcome](enum.Scan{Specs: specs, Grid: spec.Grid}, fault.SiteSweepPoint), enumCodec, start, prefix, ckpt)
	if err != nil {
		return nil, err
	}
	return enum.Summarize(res.Points, eps)
}

// writeJobsMetrics renders the jobs subsystem series on /metrics. No-op
// when jobs are disabled, so the exposition only grows for servers that
// opted in with -data-dir.
func (s *Server) writeJobsMetrics(w io.Writer) {
	if s.jobSched == nil {
		return
	}
	ss := s.jobStore.Stats()
	js := s.jobSched.Stats()

	fmt.Fprint(w, "# HELP irshared_jobs_total Job state transitions, by state entered.\n# TYPE irshared_jobs_total counter\n")
	states := make([]string, 0, len(js.Transitions))
	for st := range js.Transitions {
		states = append(states, string(st))
	}
	sort.Strings(states)
	for _, st := range states {
		fmt.Fprintf(w, "irshared_jobs_total{state=%q} %d\n", st, js.Transitions[jobs.State(st)])
	}
	fmt.Fprint(w, "# HELP irshared_jobs_queue_depth Jobs waiting for a worker slot.\n# TYPE irshared_jobs_queue_depth gauge\n")
	fmt.Fprintf(w, "irshared_jobs_queue_depth %d\n", js.QueueDepth)
	fmt.Fprint(w, "# HELP irshared_jobs_running Jobs currently executing.\n# TYPE irshared_jobs_running gauge\n")
	fmt.Fprintf(w, "irshared_jobs_running %d\n", js.Running)
	fmt.Fprint(w, "# HELP irshared_jobs_resident Job records resident in the store.\n# TYPE irshared_jobs_resident gauge\n")
	fmt.Fprintf(w, "irshared_jobs_resident %d\n", ss.Jobs)
	fmt.Fprint(w, "# HELP irshared_jobs_deduped_total Submissions answered by an existing job.\n# TYPE irshared_jobs_deduped_total counter\n")
	fmt.Fprintf(w, "irshared_jobs_deduped_total %d\n", js.Deduped)
	fmt.Fprint(w, "# HELP irshared_jobs_recovered_total Jobs requeued by startup recovery.\n# TYPE irshared_jobs_recovered_total counter\n")
	fmt.Fprintf(w, "irshared_jobs_recovered_total %d\n", js.Recovered)

	fmt.Fprint(w, "# HELP irshared_job_age_seconds Queued-to-terminal job age.\n# TYPE irshared_job_age_seconds histogram\n")
	cum := int64(0)
	for i, ub := range jobs.AgeBuckets() {
		cum += js.AgeCounts[i]
		fmt.Fprintf(w, "irshared_job_age_seconds_bucket{le=\"%g\"} %d\n", ub, cum)
	}
	fmt.Fprintf(w, "irshared_job_age_seconds_bucket{le=\"+Inf\"} %d\n", js.AgeCount)
	fmt.Fprintf(w, "irshared_job_age_seconds_sum %g\n", js.AgeSum)
	fmt.Fprintf(w, "irshared_job_age_seconds_count %d\n", js.AgeCount)

	fmt.Fprint(w, "# HELP irshared_jobs_wal_bytes Bytes in the current WAL segment.\n# TYPE irshared_jobs_wal_bytes gauge\n")
	fmt.Fprintf(w, "irshared_jobs_wal_bytes %d\n", ss.WALBytes)
	fmt.Fprint(w, "# HELP irshared_jobs_wal_appends_total WAL frames appended.\n# TYPE irshared_jobs_wal_appends_total counter\n")
	fmt.Fprintf(w, "irshared_jobs_wal_appends_total %d\n", ss.Appends)
	fmt.Fprint(w, "# HELP irshared_jobs_wal_syncs_total Fsync'd WAL appends.\n# TYPE irshared_jobs_wal_syncs_total counter\n")
	fmt.Fprintf(w, "irshared_jobs_wal_syncs_total %d\n", ss.Syncs)
	fmt.Fprint(w, "# HELP irshared_jobs_compactions_total Snapshot compactions.\n# TYPE irshared_jobs_compactions_total counter\n")
	fmt.Fprintf(w, "irshared_jobs_compactions_total %d\n", ss.Compactions)
}
