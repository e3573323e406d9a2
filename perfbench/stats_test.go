package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(10)
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {10, 1}, {0, 1}, {100, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		beyond int
	}{
		{5, 100, 0},    // too few samples for any percentile
		{20, 50, 10},   // p50 leaves exactly 10 beyond
		{99, 50, 49},   // p90 would leave 9
		{100, 90, 10},  // p90 leaves exactly 10
		{255, 90, 25},  // scan-jobs' usual size
		{999, 90, 99},  // p99 would leave 9
		{1000, 99, 10}, // p99 leaves exactly 10
		{45000, 99.9, 45},
		{100000, 99.99, 10},
	} {
		tl := tailOf(seq(c.n))
		if tl.Pct != c.pct || tl.Beyond != c.beyond || tl.N != c.n {
			t.Errorf("n=%d: tail %+v, want pct %v with %d beyond", c.n, tl, c.pct, c.beyond)
		}
		if c.pct < 100 && tl.Value != float64(c.n-c.beyond) {
			t.Errorf("n=%d: tail value %v, want %v", c.n, tl.Value, c.n-c.beyond)
		}
	}
}

func TestTailCountsFailuresAsMissingEveryLimit(t *testing.T) {
	// 11 failed ops of 100: the p90 sample itself is a failure.
	xs := append(seq(89), make([]float64, 11)...)
	for i := 89; i < 100; i++ {
		xs[i] = math.Inf(1)
	}
	if tl := tailOf(xs); !math.IsInf(tl.Value, 1) || tl.Pct != 90 {
		t.Errorf("tail with 11%% failed ops = %+v, want +Inf at p90", tl)
	}
	if finite(math.Inf(1)) != math.MaxFloat64 {
		t.Error("finite(+Inf) should be the largest float")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func span(name string, start, dur int, children ...*obs.SpanSnapshot) *obs.SpanSnapshot {
	t0 := time.Unix(0, 0)
	return &obs.SpanSnapshot{Name: name, Start: t0.Add(time.Duration(start)), Duration: time.Duration(dur), Children: children}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) has children a [10,30), b [20,50) (overlapping a) and
	// c [90,120) (clipped to 90..100); a has a child d [12,15).
	root := span("root", 0, 100,
		span("a", 10, 20, span("d", 12, 3)),
		span("b", 20, 30),
		span("c", 90, 30),
	)
	got := map[string]time.Duration{}
	selfTimes(root, got)
	want := map[string]time.Duration{"root": 100 - 40 - 10, "a": 17, "b": 30, "c": 30, "d": 3}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %v, want %v", k, got[k], v)
		}
	}
	// Self times of repeated names add up.
	selfTimes(span("root", 0, 5), got)
	if got["root"] != 55 {
		t.Errorf("accumulated self(root) = %v, want 55", got["root"])
	}
}

func TestSelfTimesFromCollectorTrace(t *testing.T) {
	col := obs.NewCollector(obs.CollectorConfig{})
	tr := col.NewTrace("req")
	ctx := tr.Context(context.Background())
	_, sp := obs.Start(ctx, "server.decode")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	tr.Finish()
	snap, ok := col.Get(tr.ID())
	if !ok {
		t.Fatal("trace not retained")
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back obs.TraceSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	got := map[string]time.Duration{}
	selfTimes(back.Root, got)
	if got["server.decode"] < 2*time.Millisecond {
		t.Errorf("self(server.decode) = %v, want ≥ 2ms", got["server.decode"])
	}
	if got["req"]+got["server.decode"] != back.Root.Duration {
		t.Errorf("self times %v do not add up to the root's %v", got, back.Root.Duration)
	}
}

func TestAnswerDigestIsCanonical(t *testing.T) {
	a, err := canonicalJSON([]byte(`{"b": [1, 2.50], "a": {"y": "s", "x": null}}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := canonicalJSON([]byte(`{"a":{"x":null,"y":"s"},"b":[1,2.50]}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) || digest(a) != digest(b) {
		t.Errorf("canonical forms differ: %s vs %s", a, b)
	}
	if string(a) != `{"a":{"x":null,"y":"s"},"b":[1,2.50]}` {
		t.Errorf("canonical form %s", a)
	}
	c, _ := canonicalJSON([]byte(`{"a":{"x":null,"y":"t"},"b":[1,2.50]}`))
	if digest(c) == digest(a) {
		t.Error("different answers share a digest")
	}
	if d := digest(a); len(d) != 12 {
		t.Errorf("digest %q is not 12 hex digits", d)
	}
}

func TestPromSamples(t *testing.T) {
	page := "# HELP x y\nirshared_cache_hits_total 12\nirrouter_stage_seconds_sum{stage=\"router.place\"} 0.5\nbad line\n"
	got := promSamples(strings.NewReader(page))
	if got["irshared_cache_hits_total"] != 12 || got[`irrouter_stage_seconds_sum{stage="router.place"}`] != 0.5 || len(got) != 2 {
		t.Errorf("promSamples = %v", got)
	}
}

func TestColdRelabelerOutlastsTheCache(t *testing.T) {
	pool := coldPool()
	rl := newRelabeler(7, pool, ring.key, coldWindow)
	last := map[string]int{}
	for i, w := range coldWarmups() {
		rl.issue(w)
		last[w.key()] = i - len(coldWarmups())
	}
	// Twenty passes: far more requests than a 40 s run sends today. A ring
	// comes back only after more than coldWindow others, when the cache
	// has long evicted it.
	reused := 0
	for i := 0; i < 20*len(pool); i++ {
		r, _, err := rl.next(i % len(pool))
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if at, ok := last[r.key()]; ok {
			if i-at <= coldWindow {
				t.Fatalf("op %d repeats the ring of op %d", i, at)
			}
			reused++
		}
		last[r.key()] = i
	}
	if reused == 0 {
		t.Error("twenty passes never reused a ring; the test no longer covers reuse")
	}
	// The same seed gives the same sequence.
	r1, _, _ := newRelabeler(7, pool, ring.key, coldWindow).next(0)
	r0, _, _ := newRelabeler(7, pool, ring.key, coldWindow).next(0)
	if r0.key() != r1.key() || r0.v != r1.v {
		t.Error("relabeling is not a function of the seed")
	}
}

func TestJobRelabelerNeverRepeats(t *testing.T) {
	list := newScanList(7, jobsPool(jobsMaster, jobsPoolSize), topoSeedBase)
	seen := map[string]bool{}
	// Sixteen passes of the pool: over fifteen times what a 40 s run submits
	// today.
	for i := 0; i < 16*jobsPoolSize*jobsPerCycle; i++ {
		j, err := list.job(i, 0)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		k := fmt.Sprintf("%s|%s|%v|%d", j.kind, j.r.agentKey(), j.members, j.topo)
		if seen[k] {
			t.Fatalf("job %d repeats an earlier job", i)
		}
		seen[k] = true
	}
	// With no window, an exhausted pool item is an error, not a repeat.
	r := ring{ws: []string{"1", "1", "1"}}
	rl := newRelabeler(1, []ring{r}, ring.key, 0)
	if _, _, err := rl.next(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := rl.next(0); err == nil {
		t.Error("a ring with one distinct relabeling was issued twice")
	}
}

func TestRelabelMovesTheAgent(t *testing.T) {
	r := ring{ws: []string{"1", "2", "3", "4", "5"}, v: 1}
	l := label{n: 5, rot: 2, reflect: true}
	got := r.relabel(l)
	if got.ws[got.v] != "2" {
		t.Errorf("agent weight after relabel = %s, want 2", got.ws[got.v])
	}
	// Neighbours stay neighbours.
	n := len(got.ws)
	if nb := []string{got.ws[(got.v+1)%n], got.ws[(got.v+n-1)%n]}; !(nb[0] == "1" && nb[1] == "3" || nb[0] == "3" && nb[1] == "1") {
		t.Errorf("agent neighbours after relabel = %v, want 1 and 3", nb)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metric
// tables of this program in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, e2eMetrics)
	check("per_layer", b.PerLayer, layerMetrics)
	if len(b.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloadOrder))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloadOrder[i])
		}
	}
}
