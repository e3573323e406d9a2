package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/client"
	"repro/internal/bottleneck"
	"repro/internal/graph"
	"repro/internal/jobs"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/server"
	"repro/internal/sybil"
)

// Scan-jobs job parameters.
const (
	jobsPerCycle  = 5
	jobsPoolSize  = 128 // cycle specs; each ring has 16–24 relabelings
	sweepGrid     = 64
	ksybilK       = 3
	ksybilGrid    = 16
	coalitionGrid = 16
	topoCount     = 3
	topoN         = 10
	topoGrid      = 8
	topoSeedBase  = 1000
	jobPoll       = 2 * time.Millisecond
	// jobsSnapshotOp is the job after which scan-jobs reads live_heap_mb,
	// and jobsImageOp the one after which it copies the data dir for
	// recovery: the store then holds the same jobs in every run, where at
	// the end of the phase it would hold as many as the run's speed
	// allowed. The image is copied early, about a fifth into a 40 s run,
	// so that recovery can be sampled over the rest of the phase.
	jobsSnapshotOp = 240
	jobsImageOp    = 100
	// recover_ms on scan-jobs is the median of a batch of
	// jobsRestartBatch restarts every jobsRestartEvery of the measured
	// phase after the image is copied (about 35 in 40 s), and at least
	// jobsRestarts.
	jobsRestarts     = 31
	jobsRestartBatch = 3
	jobsRestartEvery = 2 * time.Second
)

var topoFamilies = []string{scenario.FamilyTree, scenario.FamilyBarbell, scenario.FamilySmallWorld, scenario.FamilyER}

// scanJob is one durable job of the scan-jobs list with what a direct
// library call on the same spec needs.
type scanJob struct {
	req     client.JobSubmitRequest
	kind    string
	r       ring  // sweep, ksybil, coalition
	members []int // coalition
	topo    int64 // topology seed
}

// scanList builds the jobs of scan-jobs from pinned cycle specs, relabeled
// by the run's seed. Topology scans have no ring to relabel; their
// generator seed is topoBase plus the cycle number plus phaseSalt, so two
// phases of a run never submit the same scan.
type scanList struct {
	pool     []jobCycle
	rl       *relabeler
	topoBase int64
}

func newScanList(seed int64, pool []jobCycle, topoBase int64) *scanList {
	var rings []ring
	for _, c := range pool {
		rings = append(rings, c.sweepA, c.sweepB, c.ksybil, c.coalition)
	}
	return &scanList{pool: pool, rl: newRelabeler(seed, rings, ring.agentKey, 0), topoBase: topoBase}
}

// job returns op i of a phase.
func (sl *scanList) job(i int, phaseSalt int64) (scanJob, error) {
	cycle, slot := i/jobsPerCycle, i%jobsPerCycle
	item := cycle % len(sl.pool)
	if slot == 4 {
		seed := sl.topoBase + int64(cycle) + phaseSalt
		return scanJob{kind: "topology", topo: seed, req: client.JobSubmitRequest{Kind: "topology",
			Scenario: &server.ScenarioRequest{Kind: "topology", Families: topoFamilies, Count: topoCount, N: topoN, Grid: topoGrid, Seed: seed}}}, nil
	}
	r, l, err := sl.rl.next(4*item + slot)
	if err != nil {
		return scanJob{}, err
	}
	switch slot {
	case 0, 1:
		return scanJob{kind: "sweep", r: r, req: client.JobSubmitRequest{Kind: "sweep", Graph: r.wire(), V: r.v, Grid: sweepGrid}}, nil
	case 2:
		return scanJob{kind: "ksybil", r: r, req: client.JobSubmitRequest{Kind: "ksybil",
			Scenario: &server.ScenarioRequest{Kind: "ksybil", Graph: r.wire(), V: r.v, K: ksybilK, Grid: ksybilGrid}}}, nil
	}
	m := sl.pool[item].members
	members := []int{l.apply(m[0]), l.apply(m[1])}
	return scanJob{kind: "coalition", r: r, members: members, req: client.JobSubmitRequest{Kind: "coalition",
		Scenario: &server.ScenarioRequest{Kind: "coalition", Graph: r.wire(), Members: members, Grid: coalitionGrid}}}, nil
}

// direct runs the job's computation as a plain library call — no HTTP,
// scheduler or WAL — and returns its point count.
func (j scanJob) direct(ctx context.Context) (int, error) {
	switch j.kind {
	case "sweep":
		res, err := sybil.RingSweepCtx(ctx, j.r.graph(), j.r.v, sybil.SweepOptions{Grid: sweepGrid})
		if err != nil {
			return 0, err
		}
		return len(res.Points), nil
	case "ksybil":
		res, err := scenario.KSybil(ctx, j.r.graph(), j.r.v, scenario.KSybilOptions{K: ksybilK, Grid: ksybilGrid})
		if err != nil {
			return 0, err
		}
		return len(res.Points), nil
	case "coalition":
		res, err := scenario.Coalition(ctx, j.r.graph(), scenario.CoalitionOptions{Members: j.members, Grid: coalitionGrid})
		if err != nil {
			return 0, err
		}
		return len(res.Points), nil
	}
	res, err := scenario.Topology(ctx, j.topoOptions())
	if err != nil {
		return 0, err
	}
	return len(res.Outcomes), nil
}

func (j scanJob) topoOptions() scenario.TopologyOptions {
	return scenario.TopologyOptions{Families: topoFamilies, Count: topoCount, N: topoN, Grid: topoGrid, Seed: j.topo, Dist: graph.DistUniform}
}

// checkJob checks a finished job: done, every point covered, and — for
// sweeps — Theorem 8's bound on the ratio.
func checkJob(j *client.Job) error {
	if j.State != "done" {
		return fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
	}
	if j.TotalPoints == 0 || j.NextIndex != j.TotalPoints {
		return fmt.Errorf("job %s: next_index %d, total %d", j.ID, j.NextIndex, j.TotalPoints)
	}
	if j.Kind != "sweep" {
		return nil
	}
	var sw server.SweepResponse
	if err := json.Unmarshal(j.Result, &sw); err != nil {
		return fmt.Errorf("job %s result: %w", j.ID, err)
	}
	r, err := numeric.Parse(sw.Ratio)
	if err != nil {
		return fmt.Errorf("job %s ratio: %w", j.ID, err)
	}
	if !r.LessEq(numeric.Two) {
		return fmt.Errorf("job %s: sweep ratio %s breaks Theorem 8", j.ID, sw.Ratio)
	}
	return nil
}

// scanState is a scan-jobs set-up: a backend on a fresh data dir.
type scanState struct {
	dir   string
	b     *backend
	c     *benchClient
	jobs  uint64 // jobs submitted to the store, which numbers them from 1
	polls int    // job list polls sent
}

// jobRun is one submitted and finished job.
type jobRun struct {
	job      *client.Job
	submitMs float64
	lat      time.Duration
}

// failedEvery is how often runJob looks for its job among the failed ones
// instead of the done ones.
const failedEvery = 500

// runJob submits j under ctx and polls until it is terminal. The op's
// latency runs from the benchmark's clock at submission to the job
// record's finish time: both clocks are this process's, and the poll
// interval does not enter the measurement.
//
// A poll lists the job only once it is done (every failedEvery-th poll:
// failed), through the list's cursor, so a poll of an unfinished job
// allocates the same small amount however far the job has got; polling the
// job itself would copy and encode its growing checkpoint on every poll,
// and how many polls a job takes depends on its speed. pollAlloc measures
// that amount, and the workload takes polls × it out of alloc_mb_per_op.
func (s *scanState) runJob(ctx context.Context, j scanJob) (*jobRun, error) {
	t0 := time.Now()
	sub, err := s.c.SubmitJob(ctx, &j.req)
	if err != nil {
		return nil, fmt.Errorf("submit %s: %w", j.kind, err)
	}
	submitMs := ms(time.Since(t0))
	if sub.Deduped {
		return nil, fmt.Errorf("submit %s: deduped to job %s", j.kind, sub.Job.ID)
	}
	after := s.jobs
	s.jobs++
	for i := 1; ; i++ {
		state := "done"
		if i%failedEvery == 0 {
			state = "failed"
		}
		job, err := s.poll(after, state)
		if err != nil {
			return nil, fmt.Errorf("poll %s: %w", sub.Job.ID, err)
		}
		if job != nil {
			if job.ID != sub.Job.ID {
				return nil, fmt.Errorf("poll %s: the store lists job %s after cursor %d", sub.Job.ID, job.ID, after)
			}
			return &jobRun{job: job, submitMs: submitMs, lat: time.Duration(job.FinishedAt - t0.UnixNano())}, nil
		}
		time.Sleep(jobPoll)
	}
}

// poll lists the first job after cursor if it is in state, or returns nil.
func (s *scanState) poll(cursor uint64, state string) (*client.Job, error) {
	s.polls++
	page, err := s.c.ListJobs(context.Background(), client.JobListQuery{Cursor: cursor, Limit: 1, State: state})
	if err != nil || len(page.Jobs) == 0 {
		return nil, err
	}
	return &page.Jobs[0], nil
}

// pollAlloc is the heap an empty poll allocates, client and server
// together: bytes and objects, the mean over n polls past the store's last
// job.
func (s *scanState) pollAlloc(n int) (bytes, objs float64, err error) {
	a := readRuntime()
	for i := 0; i < n; i++ {
		job, err := s.poll(s.jobs, "done")
		if err != nil {
			return 0, 0, err
		}
		if job != nil {
			return 0, 0, fmt.Errorf("job %s listed past the store's last job", job.ID)
		}
	}
	b := readRuntime()
	return float64(b.allocBytes-a.allocBytes) / float64(n), float64(b.allocObjs-a.allocObjs) / float64(n), nil
}

// scanJobs is the scan-jobs workload: one durable job in flight, direct to
// a backend whose fresh data dir is on the real filesystem with fsync on,
// through a fixed list of sweep, k-sybil, coalition and topology jobs;
// then the data dir is reopened to time recovery.
func scanJobs(rc *runCtx) (*outcome, error) {
	o := newOutcome()
	list := newScanList(rc.seed, jobsPool(jobsMaster, jobsPoolSize), topoSeedBase)
	// Set-up runs one cycle of jobs on specs the measured list never uses,
	// so every job kind's first-use costs are paid before timing.
	warm := newScanList(0, jobsPool(jobsMaster+1, 1), 1)
	// teardown closes the client and the backend.
	teardown := func(s *scanState) {
		s.c.close()
		if err := s.b.close(); err != nil {
			o.problem("close backend: %v", err)
		}
		s.b = nil
	}
	dir := filepath.Join(rc.work, fmt.Sprintf("scan-jobs-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b, err := startBackend(dir)
	if err != nil {
		return nil, err
	}
	st := &scanState{dir: dir, b: b, c: newClient(b.web.url, rc.seed)}
	closed := false
	defer func() {
		if !closed {
			teardown(st)
		}
	}()
	for i := 0; i < jobsPerCycle; i++ {
		j, err := warm.job(i, 0)
		var run *jobRun
		if err == nil {
			run, err = st.runJob(context.Background(), j)
		}
		if err == nil {
			err = checkJob(run.job)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	if rc.setupDone(o) {
		return o, nil
	}
	pollBytes, pollObjs, err := st.pollAlloc(200)
	if err != nil {
		return nil, err
	}
	o.report["poll_alloc_b"] = pollBytes

	type tracedJob struct {
		j   scanJob
		run *jobRun
	}
	var traced []tracedJob
	var walBytes, walPoints float64
	// image is the data dir as it stood after job jobsImageOp, whose last
	// job recovery reads back.
	image := st.dir + "-image"
	defer os.RemoveAll(image)
	var last, final *client.Job
	var lastDigest, finalDigest string
	rs := &restartSampler{name: "scan-jobs", batch: jobsRestartBatch, every: jobsRestartEvery}
	var snapBytes, snapObjs float64 // what snapshot and copyImage allocated
	own := func(f func()) {
		a := readRuntime()
		f()
		b := readRuntime()
		snapBytes += float64(b.allocBytes - a.allocBytes)
		snapObjs += float64(b.allocObjs - a.allocObjs)
	}
	// copyImage copies the data dir. Between jobs the store is quiescent,
	// so the copy is the crash image of a server that had run exactly the
	// jobs so far. An untraced run then starts sampling restarts on it.
	copyImage := func() {
		own(func() {
			if err := copyDir(st.dir, image); err != nil {
				o.problem("copy data dir: %v", err)
			}
		})
		last, lastDigest = final, finalDigest
		if !rc.trace {
			rs.start("-image", image, "-job", last.ID+":"+lastDigest)
		}
	}
	// snapshot reads live_heap_mb. The server keeps its last 256 request
	// traces, and how many of those are 2 ms polls depends on the run's
	// speed, so the snapshot first polls the last job until the buffer holds
	// only those polls.
	snapshot := func() {
		own(func() {
			for i := 0; i < obs.DefaultCapacity; i++ {
				if _, err := st.c.GetJob(context.Background(), final.ID); err != nil {
					o.problem("poll %s: %v", final.ID, err)
					break
				}
			}
			o.e2e["live_heap_mb"] = liveHeapMiB()
		})
	}
	spans := newSpanTimes()
	op := func(isTraced bool, salt int64) func(c, i int) opResult {
		return func(_, i int) opResult {
			ctx := context.Background()
			j, err := list.job(i, salt)
			if err != nil {
				o.problem("%v", err)
				return opResult{}
			}
			var before map[string]float64
			ids := &traceIDs{}
			if isTraced {
				ctx = context.WithValue(ctx, traceKey{}, ids)
				if before, err = st.c.scrape(st.b.web.url); err != nil {
					o.problem("%v", err)
				}
			}
			run, err := st.runJob(ctx, j)
			if err == nil {
				err = checkJob(run.job)
			}
			if err != nil {
				o.problem("job op %d: %v", i, err)
				lat := time.Duration(0)
				if run != nil {
					lat = run.lat
				}
				return opResult{lat: lat}
			}
			canon, err := canonicalJSON(run.job.Result)
			if err != nil {
				o.problem("job op %d result: %v", i, err)
				return opResult{lat: run.lat}
			}
			if !isTraced {
				rc.checkPinned(o, "scan-jobs", i, digest(canon))
				final, finalDigest = run.job, digest(canon)
				if i == rc.snapshotOp(jobsImageOp)-1 {
					copyImage()
				}
				if i == rc.snapshotOp(jobsSnapshotOp)-1 {
					snapshot()
				}
			} else {
				traced = append(traced, tracedJob{j, run})
				after, err := st.c.scrape(st.b.web.url)
				if err == nil && delta(before, after, "irshared_jobs_compactions_total") == 0 {
					walBytes += delta(before, after, "irshared_jobs_wal_bytes")
					walPoints += float64(run.job.TotalPoints)
				}
				if err == nil {
					err = spans.fetch(st.c, st.b.web.url, ids.backend)
				}
				if err != nil {
					o.problem("%v", err)
				}
			}
			return opResult{lat: run.lat, ok: true, points: run.job.TotalPoints, kind: j.kind}
		}
	}

	dur := rc.dur
	if rc.trace {
		dur /= 2
	}
	m0, err := st.c.scrape(st.b.web.url)
	if err != nil {
		return nil, err
	}
	polls0 := st.polls
	untraced := op(false, 0)
	p := measure(1, dur, rc.pinOps, func(c, i int) opResult {
		rs.tick()
		return untraced(c, i)
	})
	if final == nil {
		return nil, fmt.Errorf("no job finished")
	}
	if last == nil {
		copyImage()
		o.report["image_at"] = "end of a phase shorter than the image op"
	}
	if _, ok := o.e2e["live_heap_mb"]; !ok {
		snapshot()
		o.report["snapshot_at"] = "end of a phase shorter than the snapshot op"
	}
	// The benchmark's own polls, snapshot, image copy and restart probes
	// allocate too; they are not part of the ops.
	polls := float64(st.polls - polls0)
	p.ownBytes, p.ownObjs = polls*pollBytes+snapBytes, polls*pollObjs+snapObjs
	rs.account(&p)
	o.report["polls_per_job"] = ratio(polls, float64(len(p.ops)))
	p.endToEnd(o)
	m1, err := st.c.scrape(st.b.web.url)
	if err != nil {
		return nil, err
	}
	if rc.trace {
		tp := measure(1, dur, 0, op(true, 1_000_000))
		m2, err := st.c.scrape(st.b.web.url)
		if err != nil {
			return nil, err
		}
		o.attempted += len(tp.ops)
		o.failed += tp.failed()
		spans.fill(o, len(tp.ops))
		cacheLayers(o, m1, m2, len(tp.ops))
		p.runtimeLayers(o)
		o.layers["obs.overhead_share"] = overheadShare(p, tp)
		jobsN := float64(len(tp.ops))
		o.layers["jobs.wal_appends_per_job"] = ratio(delta(m1, m2, "irshared_jobs_wal_appends_total"), jobsN)
		o.layers["jobs.wal_syncs_per_job"] = ratio(delta(m1, m2, "irshared_jobs_wal_syncs_total"), jobsN)
		o.layers["jobs.wal_bytes_per_point"] = ratio(walBytes, walPoints)
		if o.layers["http.floor_ms"], err = st.c.floor(st.b.web.url, 200); err != nil {
			return nil, err
		}
		var submit, queue, runMs []float64
		for _, t := range traced {
			submit = append(submit, t.run.submitMs)
			queue = append(queue, ms(time.Duration(t.run.job.StartedAt-t.run.job.CreatedAt)))
			runMs = append(runMs, ms(time.Duration(t.run.job.FinishedAt-t.run.job.StartedAt)))
		}
		o.layers["jobs.submit_ms"] = median(submit)
		o.layers["jobs.queue_ms"] = median(queue)
		o.layers["jobs.run_ms"] = median(runMs)
		probeCycles := traced
		if len(probeCycles) > 2*jobsPerCycle {
			probeCycles = probeCycles[:2*jobsPerCycle]
		}
		var probed []scanJob
		var runSum time.Duration
		for _, t := range probeCycles {
			probed = append(probed, t.j)
			runSum += time.Duration(t.run.job.FinishedAt - t.run.job.StartedAt)
		}
		directSum, err := libraryLayers(o, probed)
		if err != nil {
			return nil, err
		}
		o.layers["jobs.overhead_share"] = 1 - ratio(directSum.Seconds(), runSum.Seconds())
	}
	if hits := delta(m0, m1, "irshared_jobs_deduped_total"); hits != 0 {
		o.problem("scan-jobs lost its shape: %.0f deduped submissions", hits)
	}
	o.layers["client.retries_per_op"] = ratio(float64(st.c.retries.Load()), float64(o.attempted))

	teardown(st)
	closed = true
	if !rc.trace {
		// Recovery: reopen the data dir image (in fresh processes, see
		// restartTimes); the reopened store serves the image's last job
		// with the result it had before.
		ts, err := rs.finish(jobsRestarts)
		if err != nil {
			return nil, err
		}
		o.report["recover_samples_ms"] = ts
		o.e2e["recover_ms"] = median(ts)
	} else {
		if o.layers["jobs.open_ms"], err = medianTime(7, func() error {
			store, err := jobs.Open(image, jobs.StoreConfig{})
			if err != nil {
				return err
			}
			return store.Close()
		}); err != nil {
			return nil, err
		}
	}
	setLayerDefaults(o)
	return o, nil
}

// imageRestarts times n restarts on a data dir image, each from
// server.New, which replays it, to the answer for the image's last job,
// checked against want: "id:digest" of its result as served before.
func imageRestarts(image, want string, n int) ([]float64, error) {
	id, wantDigest, ok := strings.Cut(want, ":")
	if image == "" || !ok {
		return nil, fmt.Errorf("-image and -job id:digest are required, got %q and %q", image, want)
	}
	return restartTimes(n, image, func(c *benchClient, _ string) error {
		job, err := c.GetJob(context.Background(), id)
		if err != nil {
			return err
		}
		canon, err := canonicalJSON(job.Result)
		if err != nil {
			return err
		}
		if d := digest(canon); job.State != "done" || d != wantDigest {
			return fmt.Errorf("job %s after restart: state %s, result digest %s, before %s", id, job.State, d, wantDigest)
		}
		return nil
	})
}

// libraryLayers times the same job specs as plain library calls and sets
// the sybil, scenario, maxflow and core per-layer metrics. It returns the
// summed direct time.
func libraryLayers(o *outcome, js []scanJob) (time.Duration, error) {
	ctx := context.Background()
	var total time.Duration
	points := map[string]int{}
	busy := map[string]time.Duration{}
	var probe coreProbe
	var decompose []float64
	for _, j := range js {
		t0 := time.Now()
		n, err := j.direct(ctx)
		if err != nil {
			return 0, fmt.Errorf("direct %s: %w", j.kind, err)
		}
		d := time.Since(t0)
		total += d
		points[j.kind] += n
		busy[j.kind] += d
		switch j.kind {
		case "sweep":
			if _, err := probe.solve(j.r, coldGrid); err != nil {
				return 0, err
			}
		case "topology":
			opts := j.topoOptions()
			for i := 0; i < topoCount*len(topoFamilies); i++ {
				g, _, err := scenario.TopologyInstance(opts, i)
				if err != nil {
					return 0, err
				}
				t0 := time.Now()
				if _, err := bottleneck.DecomposeCtx(ctx, g, bottleneck.EngineAuto); err != nil {
					return 0, err
				}
				decompose = append(decompose, ms(time.Since(t0)))
			}
		}
	}
	o.layers["sybil.points_per_s"] = ratio(float64(points["sweep"]), busy["sweep"].Seconds())
	for _, k := range []string{"ksybil", "coalition", "topology"} {
		o.layers["scenario.points_per_s."+k] = ratio(float64(points[k]), busy[k].Seconds())
	}
	o.layers["maxflow.decompose_ms"] = median(decompose)
	probe.fill(o)
	return total, nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
