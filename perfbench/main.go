// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against irshared (server.New + Handler at the defaults
// cmd/irshared ships with) and, in ratio-cold's traced run, irrouter
// (cluster.New), all in this one process, and prints the workload's
// metrics as a JSON object on the last line of standard output.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload ratio-cold --seed 1 --seconds 40 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (see README.md); setup_s and recover_ms are timed in fresh probe
// processes of this program (-setup-probe, -restart-probe). --smoke runs a short check of every workload, and --pin
// rewrites the pinned answer digests (pinned.json) at the default seed.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/server"
)

// defaultSeed is the seed whose answers pinned.json pins.
const defaultSeed = 1

// setupProbes is how many fresh processes a run sets its workload up in;
// setup_s is the median of their times from process start to ready.
const setupProbes = 7

type metricDef struct{ name, unit string }

// e2eMetrics are printed by every --trace 0 run, in this order.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"points_per_s", "1/s"},
	{"alloc_mb_per_op", "MiB"},
	{"live_heap_mb", "MiB"},
	{"recover_ms", "ms"},
}

// layerMetrics are printed by every --trace 1 run. A layer a workload does
// not exercise reads 0 there (README.md maps layers to workloads).
var layerMetrics = []metricDef{
	{"server.overhead_ms", "ms"},
	{"server.decode_ms", "ms"},
	{"server.admit_ms", "ms"},
	{"server.compute_ms", "ms"},
	{"server.write_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_miss_ratio", "ratio"},
	{"server.cache_evictions_per_op", "count"},
	{"server.batch_join_ratio", "ratio"},
	{"http.floor_ms", "ms"},
	{"cluster.proxy_ms", "ms"},
	{"cluster.place_ms", "ms"},
	{"cluster.forward_ms", "ms"},
	{"cluster.cert_check_ms", "ms"},
	{"cert.build_ms", "ms"},
	{"cert.check_ms", "ms"},
	{"core.new_instance_ms", "ms"},
	{"core.optimize_ms.random", "ms"},
	{"core.optimize_ms.lbf", "ms"},
	{"core.evals_per_op", "count"},
	{"bottleneck.stage1_warm_ratio", "ratio"},
	{"bottleneck.warm_restarts_per_op", "count"},
	{"bottleneck.later_cold_per_op", "count"},
	{"bottleneck.later_warm_per_op", "count"},
	{"bottleneck.transfer_hit_ratio", "ratio"},
	{"bottleneck.tail_hit_ratio", "ratio"},
	{"bottleneck.fallbacks_per_op", "count"},
	{"maxflow.decompose_ms", "ms"},
	{"sybil.points_per_s", "1/s"},
	{"scenario.points_per_s.ksybil", "1/s"},
	{"scenario.points_per_s.coalition", "1/s"},
	{"scenario.points_per_s.topology", "1/s"},
	{"jobs.overhead_share", "ratio"},
	{"jobs.submit_ms", "ms"},
	{"jobs.queue_ms", "ms"},
	{"jobs.run_ms", "ms"},
	{"jobs.wal_appends_per_job", "count"},
	{"jobs.wal_syncs_per_job", "count"},
	{"jobs.wal_bytes_per_point", "B"},
	{"jobs.open_ms", "ms"},
	{"runtime.alloc_objects_per_op", "count"},
	{"gc.cycles_per_op", "count"},
	{"gc.cpu_share", "ratio"},
	{"gc.pause_p99_ms", "ms"},
	{"client.retries_per_op", "count"},
	{"obs.overhead_share", "ratio"},
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*runCtx) (*outcome, error){
	"ratio-cold": ratioCold,
	"scan-jobs":  scanJobs,
}

// workloadOrder lists the workloads, as BENCHMARK.json does.
var workloadOrder = []string{"ratio-cold", "scan-jobs"}

// runCtx is what a workload run is given.
type runCtx struct {
	seed    int64
	dur     time.Duration // measured time (split in two phases when traced)
	trace   bool
	smoke   bool
	pinning bool   // --pin: record digests instead of checking them
	pinOps  int    // >0: measure exactly this many ops
	work    string // scratch directory for data dirs
	pinned  map[string]pinnedEntry
	probes  int       // set-up probe processes per run
	probe   bool      // this process is a set-up probe
	stdout  io.Writer // where a probe says it is ready
	setup0  time.Time // start of the workload's set-up
}

// outcome is what a workload run reports.
type outcome struct {
	e2e       map[string]float64
	layers    map[string]float64
	attempted int
	failed    int
	problems  []string // correctness failures; any makes correct false
	report    map[string]any
	digests   []string // per-op answer digests, in op order (pin mode)

	mu sync.Mutex // guards problems while clients run
}

func (o *outcome) problem(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, report: map[string]any{}}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload: "+strings.Join(workloadOrder, " or "))
		seed     = fs.Int64("seed", defaultSeed, "workload seed")
		seconds  = fs.Int("seconds", 10, "measured seconds")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
		smoke    = fs.Bool("smoke", false, "run every workload (or -workload) briefly and check its answers")
		pin      = fs.Bool("pin", false, "rewrite perfbench/pinned.json from runs at the default seed")
		probe    = fs.Bool("setup-probe", false, "set -workload up, print ready, and exit (setup_s samples)")
		restart  = fs.Bool("restart-probe", false, "time restarts of -workload's backend, print them, and exit (recover_ms samples)")
		image    = fs.String("image", "", "scan-jobs restart probe: the data dir image to reopen")
		job      = fs.String("job", "", "scan-jobs restart probe: the job to read back, as id:digest")
		restarts = fs.Int("restarts", 1, "restart probe: how many restarts to time")
		work     = fs.String("work", os.TempDir(), "directory for data dirs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	var pinned map[string]pinnedEntry
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: pinned.json:", err)
		return 1
	}
	rc := &runCtx{seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		work: *work, pinned: pinned, probes: setupProbes, stdout: stdout}

	names := workloadOrder
	if *name != "" {
		names = []string{*name}
	}
	switch {
	case *probe:
		rc.probe = true
		return runOne(rc, *name, io.Discard)
	case *restart:
		var ts []float64
		var err error
		switch *name {
		case "ratio-cold":
			ts, err = bareRestarts(*restarts)
		case "scan-jobs":
			ts, err = imageRestarts(*image, *job, *restarts)
		default:
			err = fmt.Errorf("unknown workload %q", *name)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: restart probe:", err)
			return 1
		}
		b, _ := json.Marshal(ts)
		fmt.Fprintf(stdout, "%s\n", b)
		return 0
	case *pin:
		return pinAll(rc, names)
	case *smoke:
		rc.smoke, rc.dur, rc.probes = true, 2*time.Second, 1
		code := 0
		for _, n := range names {
			if c := runOne(rc, n, stdout); c != 0 {
				code = c
			}
		}
		return code
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	return runOne(rc, *name, stdout)
}

// runOne runs one workload and prints its report line and result line.
func runOne(rc *runCtx, name string, stdout io.Writer) int {
	wl, ok := workloads[name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", name, strings.Join(workloadOrder, ", "))
		return 2
	}
	var setups []float64
	if !rc.probe {
		var err error
		if setups, err = setupTimes(rc, name, rc.probes); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: set-up probe: %v\n", name, err)
			return 1
		}
	}
	rc.setup0 = time.Now()
	out, err := wl(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	if rc.probe {
		return 0
	}
	out.e2e["setup_s"] = median(setups)
	out.report["setup_samples_s"] = setups
	defs, vals := e2eMetrics, out.e2e
	if rc.trace {
		defs, vals = layerMetrics, out.layers
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) {
			out.problem("metric %s was not measured", d.name)
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: finite(v), Unit: d.unit}
	}
	res.Correct = len(out.problems) == 0
	out.report["workload"] = name
	out.report["seed"] = rc.seed
	out.report["trace"] = rc.trace
	out.report["succeeded"] = out.attempted - out.failed
	out.report["problems"] = out.problems
	out.report["env"] = environment()
	rep, _ := json.Marshal(map[string]any{"report": out.report})
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", rep, line)
	return 0
}

// setupTimes starts n fresh processes of this program, one after another,
// that each set the workload up and exit (-setup-probe), and returns each
// one's time from its start to its ready line, in s. A fresh process pays
// what a set-up in a warm one would not: runtime and package
// initialisation, first use of every code path, and heap growth.
func setupTimes(rc *runCtx, name string, n int) ([]float64, error) {
	var ts []float64
	for i := 0; i < n; i++ {
		line, d, err := child("-setup-probe", "-workload", name, "-seed", fmt.Sprint(rc.seed), "-work", rc.work)
		if err != nil {
			return nil, fmt.Errorf("probe %d: %w", i, err)
		}
		if line != "ready" {
			return nil, fmt.Errorf("probe %d said %q, not ready", i, line)
		}
		ts = append(ts, d.Seconds())
	}
	return ts, nil
}

// restartProbe runs a -restart-probe process of this program for the
// workload with args and returns the restart times it printed, in ms.
func restartProbe(name string, args ...string) ([]float64, error) {
	line, _, err := child(append([]string{"-restart-probe", "-workload", name}, args...)...)
	if err != nil {
		return nil, fmt.Errorf("restart probe: %w", err)
	}
	var ts []float64
	if err := json.Unmarshal([]byte(line), &ts); err != nil || len(ts) == 0 {
		return nil, fmt.Errorf("restart probe printed %q", line)
	}
	return ts, nil
}

// restartSampler takes recover_ms's restarts in batches spread over the
// measured phase, so that their median covers the host's state over the
// whole run and not the second after it: a bare restart takes about a
// millisecond, and when all of a run's restarts came from one probe at its
// end, their median spread by a quarter between runs of one code while the
// phase's own timings held still. Between ops, once every has passed since
// the last batch, the loop waits while a -restart-probe process times
// batch restarts. The wait is taken out of the phase's measured time, and
// what this process allocated for it out of alloc_mb_per_op.
type restartSampler struct {
	name  string
	batch int
	every time.Duration

	args              []string // the probe's flags beyond the workload
	ready             bool     // a batch may run (the image exists on scan-jobs)
	last              time.Time
	waited            time.Duration
	ownBytes, ownObjs float64
	ts                []float64
	err               error
}

// start lets batches run from now on, every s.every, with args.
func (s *restartSampler) start(args ...string) {
	s.args, s.ready, s.last = args, true, time.Now()
}

// tick runs a batch if one is due; the closed loop calls it between ops.
func (s *restartSampler) tick() {
	if s.ready && s.err == nil && time.Since(s.last) >= s.every {
		s.take(s.batch)
	}
}

func (s *restartSampler) take(n int) {
	a := readRuntime()
	t0 := time.Now()
	ts, err := restartProbe(s.name, append([]string{"-restarts", fmt.Sprint(n)}, s.args...)...)
	s.waited += time.Since(t0)
	b := readRuntime()
	s.ownBytes += float64(b.allocBytes - a.allocBytes)
	s.ownObjs += float64(b.allocObjs - a.allocObjs)
	s.last = time.Now()
	if err != nil {
		s.err = err
	}
	s.ts = append(s.ts, ts...)
}

// account takes the batches' wait and allocation out of p; call it once,
// after the phase.
func (s *restartSampler) account(p *phase) {
	p.paused += s.waited
	p.ownBytes += s.ownBytes
	p.ownObjs += s.ownObjs
}

// finish tops the samples up to min restarts, in one batch, when the phase
// was too short for them (a smoke run), and returns every restart time.
func (s *restartSampler) finish(min int) ([]float64, error) {
	if s.ready && s.err == nil && len(s.ts) < min {
		s.take(min - len(s.ts))
	}
	if !s.ready {
		return nil, fmt.Errorf("restart probe never started")
	}
	return s.ts, s.err
}

// child runs this program with args, waits for it to exit, and returns the
// first line it printed and the time from its start to that line.
func child(args ...string) (string, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", 0, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return "", 0, err
	}
	line, rerr := bufio.NewReader(out).ReadString('\n')
	d := time.Since(t0)
	io.Copy(io.Discard, out)
	if err := cmd.Wait(); err != nil {
		return "", 0, err
	}
	if rerr != nil {
		return "", 0, fmt.Errorf("no line printed: %w", rerr)
	}
	return strings.TrimSuffix(line, "\n"), d, nil
}

// setupDone marks the end of a workload's set-up: the report records how
// long the measured process's own set-up took, and a set-up probe tells
// its parent it is ready. It reports whether the workload should stop here
// (a probe).
func (rc *runCtx) setupDone(o *outcome) bool {
	o.report["setup_in_process_s"] = time.Since(rc.setup0).Seconds()
	if rc.probe {
		fmt.Fprintln(rc.stdout, "ready")
	}
	return rc.probe
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finite maps ±Inf (a failed op in a percentile) to the largest float, so
// the result stays valid JSON and still misses every limit.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	if math.IsInf(v, -1) {
		return -math.MaxFloat64
	}
	return v
}

// ---- processes under test ----

var discardLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// backendConfig is cmd/irshared's configuration at its flag defaults, with
// the request log formatted but discarded and a fixed node ID.
func backendConfig(dataDir string) server.Config {
	return server.Config{Logger: discardLogger, NodeID: "perfbench", DataDir: dataDir}
}

// listening is an http.Server on a loopback port.
type listening struct {
	srv  *http.Server
	url  string
	done chan error
}

func listen(h http.Handler) (*listening, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &listening{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// close shuts the server down and waits for Serve to return.
func (l *listening) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		l.srv.Close()
	}
	if err := <-l.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
}

// backend is one irshared instance.
type backend struct {
	srv *server.Server
	web *listening
}

func startBackend(dataDir string) (*backend, error) {
	srv, err := server.New(backendConfig(dataDir))
	if err != nil {
		return nil, fmt.Errorf("server.New: %w", err)
	}
	web, err := listen(srv.Handler())
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &backend{srv: srv, web: web}, nil
}

func (b *backend) close() error {
	b.web.close()
	return b.srv.Close()
}

// ---- client side ----

// traceKey carries a *traceIDs through a request context; the transport
// fills it from the response headers.
type traceKey struct{}

type traceIDs struct{ backend string }

type capturing struct{ rt http.RoundTripper }

func (c capturing) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(req)
	if err == nil {
		if ids, ok := req.Context().Value(traceKey{}).(*traceIDs); ok {
			ids.backend = resp.Header.Get("X-Trace-Id")
		}
	}
	return resp, err
}

// benchClient is the repo's client.Client on a transport of at most two
// connections, counting retries.
type benchClient struct {
	*client.Client
	hc      *http.Client
	retries atomic.Int64
}

func newClient(base string, seed int64) *benchClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2, DisableCompression: true}
	bc := &benchClient{hc: &http.Client{Transport: capturing{tr}}}
	bc.Client = client.New(base, client.WithHTTPClient(bc.hc), client.WithSeed(seed),
		client.WithRetryHook(func(int, error, time.Duration) { bc.retries.Add(1) }))
	return bc
}

func (bc *benchClient) close() { bc.hc.CloseIdleConnections() }

// get fetches base+path and returns the body of a 200 answer.
func (bc *benchClient) get(ctx context.Context, base, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := bc.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %d %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// scrape reads a /metrics page into samples.
func (bc *benchClient) scrape(base string) (map[string]float64, error) {
	body, err := bc.get(context.Background(), base, "/metrics")
	if err != nil {
		return nil, err
	}
	return promSamples(strings.NewReader(string(body))), nil
}

// floor is the median /healthz round trip on the client's transport.
func (bc *benchClient) floor(base string, n int) (float64, error) {
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := bc.get(context.Background(), base, "/healthz"); err != nil {
			return 0, err
		}
		lat = append(lat, ms(time.Since(t0)))
	}
	return median(lat), nil
}

// ---- measurement ----

// opResult is one measured op.
type opResult struct {
	lat    time.Duration
	ok     bool
	points int
	kind   string        // request or job kind, for the report
	end    time.Duration // completion, from the start of the phase
}

// closedLoop runs clients goroutines, each issuing its next op as soon as
// the previous one returns, until d has passed (or, with maxOps > 0, until
// that many ops ran; pin mode). do receives the client index and the
// client's op sequence number.
func closedLoop(clients int, d time.Duration, maxOps int, do func(c, i int) opResult) ([]opResult, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]opResult, clients)
	var issued atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if maxOps > 0 {
					if issued.Add(1) > int64(maxOps) {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				op := do(c, i)
				op.end = time.Since(start)
				per[c] = append(per[c], op)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []opResult
	for _, p := range per {
		all = append(all, p...)
	}
	return all, elapsed
}

// rtSample is a snapshot of the runtime/metrics this benchmark reads.
type rtSample struct {
	allocBytes, allocObjs, gcCycles uint64
	gcCPU, totalCPU                 float64
	pauses                          *metrics.Float64Histogram
}

func readRuntime() rtSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(s)
	return rtSample{
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
		pauses:     s[5].Value.Float64Histogram(),
	}
}

// liveHeapMiB forces a GC and returns the live heap it leaves. It forces
// two: a sync.Pool's contents survive one GC (as its victim cache), and
// what the workspace pools of the cached core.Instances held at that moment
// moved scan-jobs' live heap by up to 10% between runs of one seed; the
// second GC drops them.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// pauseP99 is the 99th percentile GC pause between two samples, in ms:
// the upper edge of the histogram bucket holding it.
func pauseP99(a, b rtSample) float64 {
	counts := make([]uint64, len(b.pauses.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.pauses.Counts[i] - a.pauses.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	need := uint64(math.Ceil(0.99 * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= need {
			edge := b.pauses.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.pauses.Buckets[i]
			}
			return edge * 1000
		}
	}
	return 0
}

// phase is one measured phase: its ops and the runtime counters around it.
type phase struct {
	ops      []opResult
	elapsed  time.Duration
	paused   time.Duration // the part of elapsed spent waiting for restart probes
	rt0, rt1 rtSample
	// ownBytes and ownObjs are what the benchmark's own requests in the
	// phase allocated (restart probes; scan-jobs' polls, snapshot and image
	// copy), not the ops.
	ownBytes, ownObjs float64
}

func measure(clients int, d time.Duration, maxOps int, do func(c, i int) opResult) phase {
	p := phase{rt0: readRuntime()}
	p.ops, p.elapsed = closedLoop(clients, d, maxOps, do)
	p.rt1 = readRuntime()
	return p
}

// latencies returns the op latencies in ms, sorted, with a failed op as
// +Inf: it misses every limit.
func (p phase) latencies() []float64 {
	out := make([]float64, len(p.ops))
	for i, op := range p.ops {
		out[i] = math.Inf(1)
		if op.ok {
			out[i] = ms(op.lat)
		}
	}
	sort.Float64s(out)
	return out
}

func (p phase) failed() int {
	n := 0
	for _, op := range p.ops {
		if !op.ok {
			n++
		}
	}
	return n
}

// endToEnd fills the per-op end-to-end metrics of a phase into o.
func (p phase) endToEnd(o *outcome) {
	lat := p.latencies()
	t := tailOf(lat)
	var points int
	var busy time.Duration
	for _, op := range p.ops {
		if op.ok {
			points += op.points
			busy += op.lat
		}
	}
	n := len(p.ops)
	o.e2e["p50_ms"] = percentile(lat, 50)
	o.e2e["tail_ms"] = t.Value
	o.e2e["throughput_per_s"] = float64(n-p.failed()) / (p.elapsed - p.paused).Seconds()
	o.e2e["points_per_s"] = ratio(float64(points), busy.Seconds())
	o.e2e["alloc_mb_per_op"] = ratio((float64(p.rt1.allocBytes-p.rt0.allocBytes)-p.ownBytes)/(1<<20), float64(n))
	o.attempted += n
	o.failed += p.failed()
	o.report["tail"] = t
	o.report["measured_s"] = (p.elapsed - p.paused).Seconds()
	o.report["restart_wait_s"] = p.paused.Seconds()
	byKind := map[string][]float64{}
	for _, op := range p.ops {
		if op.ok {
			byKind[op.kind] = append(byKind[op.kind], ms(op.lat))
		}
	}
	kinds := map[string]any{}
	for k, lat := range byKind {
		kinds[k] = map[string]any{"ops": len(lat), "p50_ms": median(lat)}
	}
	o.report["by_kind"] = kinds
	blocks := make([]int, int(p.elapsed/time.Second)+1)
	for _, op := range p.ops {
		blocks[int(op.end/time.Second)]++
	}
	o.report["per_second"] = blocks
}

// runtimeLayers fills the Go runtime per-layer metrics of a phase into o.
func (p phase) runtimeLayers(o *outcome) {
	n := float64(len(p.ops))
	o.layers["runtime.alloc_objects_per_op"] = ratio(float64(p.rt1.allocObjs-p.rt0.allocObjs)-p.ownObjs, n)
	o.layers["gc.cycles_per_op"] = ratio(float64(p.rt1.gcCycles-p.rt0.gcCycles), n)
	o.layers["gc.cpu_share"] = ratio(p.rt1.gcCPU-p.rt0.gcCPU, p.rt1.totalCPU-p.rt0.totalCPU)
	o.layers["gc.pause_p99_ms"] = pauseP99(p.rt0, p.rt1)
}

// overheadShare compares a traced phase with an untraced one on p50.
func overheadShare(untraced, traced phase) float64 {
	u, t := percentile(untraced.latencies(), 50), percentile(traced.latencies(), 50)
	return ratio(t, u) - 1
}

// snapshotOp is the op after which a workload reads live_heap_mb (and
// scan-jobs copies its data dir): k in a full run, half of it in a traced
// run's half-length phases, the first op in a smoke run.
func (rc *runCtx) snapshotOp(k int) int {
	switch {
	case rc.smoke:
		return 1
	case rc.trace:
		return k / 2
	}
	return k
}

// medianTime runs f n times and returns its median duration in ms.
func medianTime(n int, f func() error) (float64, error) {
	ts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts = append(ts, ms(time.Since(t0)))
	}
	return median(ts), nil
}

// restartTimes times n restarts, each from server.New on the workload's
// configuration (data dir included, whose job store it replays) to the
// first answer the workload needs from the restarted server, which first
// fetches on a fresh connection; recover_ms is their median. It runs in a
// fresh process (restartProbe), as a real restart would: timed in the
// measured process, after its phase had grown and freed a large heap, the
// median moved by a quarter between runs of one code. Every restart starts
// from a heap collected and returned to the OS, as a new process's is;
// with only a GC in between, each restart reused more of the pages the
// ones before it had faulted in, and the later half of a run's restarts
// took a fifth less time than the earlier half.
func restartTimes(n int, dataDir string, first func(c *benchClient, base string) error) ([]float64, error) {
	const untimed = 2
	ts := make([]float64, 0, n)
	for i := 0; i < untimed+n; i++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		b, err := startBackend(dataDir)
		if err != nil {
			return nil, err
		}
		c := newClient(b.web.url, 0)
		err = first(c, b.web.url)
		d := time.Since(t0)
		c.close()
		if cerr := b.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("restart %d: %w", i, err)
		}
		if i >= untimed {
			ts = append(ts, ms(d))
		}
	}
	return ts, nil
}

// setLayerDefaults sets every per-layer metric the workload did not
// measure to 0: that layer does no work on this workload.
func setLayerDefaults(o *outcome) {
	for _, d := range layerMetrics {
		if _, ok := o.layers[d.name]; !ok {
			o.layers[d.name] = 0
		}
	}
}
