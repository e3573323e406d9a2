package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/numeric"
	"repro/internal/server"
)

// The workloads draw their instances from pinned samples (fixed master
// seeds below), and --seed relabels them: every request of a run is a
// distinct ring, yet runs with different seeds do the same amount of
// solver work. Drawing fresh random rings per seed would make the
// benchmark measure the luck of the draw — per-request cost on ratio-cold
// spans 2–300 ms — instead of the program.
const (
	coldMaster = 20200518 // ratio-cold pool
	warmMaster = 20200519 // warm-path working set
	jobsMaster = 20200520 // scan-jobs cycle specs
)

// ring is one ring instance with its manipulative agent.
type ring struct {
	ws     []string // canonical weights in ring order
	v      int
	family string // uniform, skewed, powers or lbf
}

var dists = []struct {
	name string
	d    graph.WeightDist
}{{"uniform", graph.DistUniform}, {"skewed", graph.DistSkewed}, {"powers", graph.DistPowers}}

// randomRing draws a ring of n vertices from the i-th distribution (mod 3)
// and a uniform agent.
func randomRing(rng *rand.Rand, n, i int) ring {
	d := dists[i%len(dists)]
	ws := graph.RandomWeights(rng, n, d.d)
	return ring{ws: ratStrings(ws), v: rng.Intn(n), family: d.name}
}

// lbfRing is core.LowerBoundFamily with n = 2k+5 vertices and heavy
// weight 10⁶: integer weights whose optimizer runs on big.Int DP plans.
func lbfRing(n int) ring {
	g, v, err := core.LowerBoundFamily((n-5)/2, numeric.FromInt(1_000_000))
	if err != nil {
		panic(err) // n is a compile-time constant of the pool
	}
	ws := make([]string, g.N())
	for i := range ws {
		ws[i] = g.Weight(i).String()
	}
	return ring{ws: ws, v: v, family: "lbf"}
}

func ratStrings(rs []numeric.Rat) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.String()
	}
	return out
}

// relabel returns the ring relabeled by l; the agent moves with its
// vertex.
func (r ring) relabel(l label) ring {
	out := ring{ws: make([]string, len(r.ws)), v: l.apply(r.v), family: r.family}
	for i, w := range r.ws {
		out.ws[l.apply(i)] = w
	}
	return out
}

// label is a relabeling of an n-vertex ring: reflect, then rotate.
type label struct {
	n, rot  int
	reflect bool
}

// apply maps vertex i to its new index.
func (l label) apply(i int) int {
	if l.reflect {
		i = (l.n - i) % l.n
	}
	return (i + l.rot) % l.n
}

// key is the ring's identity as the server's cache sees it.
func (r ring) key() string { return strings.Join(r.ws, ",") }

// agentKey is the identity of a ring with its agent, as the job store's
// content addresses see it.
func (r ring) agentKey() string { return fmt.Sprintf("%s|v=%d", r.key(), r.v) }

func (r ring) wire() server.WireGraph { return server.WireGraph{Ring: r.ws} }

func (r ring) graph() *graph.Graph {
	ws := make([]numeric.Rat, len(r.ws))
	for i, s := range r.ws {
		w, err := numeric.Parse(s)
		if err != nil {
			panic(err) // weights come from the generators above
		}
		ws[i] = w
	}
	return graph.Ring(ws)
}

// relabeler hands out relabelings of pinned rings. Each pool item walks
// its own seeded permutation of the 2n rotations and reflections, round
// and round, skipping any relabeling whose identity (keyOf) was issued
// within the last window issues — with window 0, ever in the run. Pool
// items may coincide up to rotation, as the lbf copies do, and a ring of
// repeated weights has fewer distinct rotations. A window longer than the
// server's cache lets ratio-cold reuse a relabeling once the cache has
// evicted it, so no run length exhausts the pool; job stores keep every
// job, so scan-jobs never reuses one.
type relabeler struct {
	seed   int64
	pool   []ring
	keyOf  func(ring) string
	window int
	perms  [][]int
	cursor []int
	issued int            // relabelings issued so far
	last   map[string]int // key → issue number of its latest issue
}

func newRelabeler(seed int64, pool []ring, keyOf func(ring) string, window int) *relabeler {
	return &relabeler{
		seed:   seed,
		pool:   pool,
		keyOf:  keyOf,
		window: window,
		perms:  make([][]int, len(pool)),
		cursor: make([]int, len(pool)),
		last:   make(map[string]int),
	}
}

// issue records r's identity as issued, if it may be issued now; set-up
// rings are issued this way, so no relabeling equals them within the
// window.
func (rl *relabeler) issue(r ring) bool {
	k := rl.keyOf(r)
	if at, ok := rl.last[k]; ok && (rl.window == 0 || rl.issued-at <= rl.window) {
		return false
	}
	rl.last[k] = rl.issued
	rl.issued++
	return true
}

// next returns the next issuable relabeling of pool item i.
func (rl *relabeler) next(i int) (ring, label, error) {
	base := rl.pool[i]
	n := len(base.ws)
	if rl.perms[i] == nil {
		rng := rand.New(rand.NewSource(rl.seed*1_000_003 + int64(i)))
		rl.perms[i] = rng.Perm(2 * n)
	}
	for try := 0; try < 2*n; try++ {
		c := rl.perms[i][rl.cursor[i]%(2*n)]
		rl.cursor[i]++
		l := label{n: n, rot: c % n, reflect: c >= n}
		if r := base.relabel(l); rl.issue(r) {
			return r, l, nil
		}
		if rl.window == 0 && rl.cursor[i] >= 2*n {
			break
		}
	}
	return ring{}, label{}, fmt.Errorf("pool item %d: no relabeling of its %d left to issue", i, 2*n)
}

// coldPool is ratio-cold's pinned sample: 96 random rings with n in
// [16, 40] cycling through the uniform, skewed and powers distributions,
// and 9 lower-bound-family rings (three each of n = 17, 33, 65), in a
// pinned shuffled order. An lbf ring is symmetric about its heavy vertex,
// so its three copies share n distinct relabelings: enough for the 2–3
// passes of a cache-length window (coldWindow).
func coldPool() []ring {
	rng := rand.New(rand.NewSource(coldMaster))
	var pool []ring
	for i := 0; i < 96; i++ {
		pool = append(pool, randomRing(rng, 16+rng.Intn(25), i))
	}
	for i := 0; i < 3; i++ {
		for _, n := range []int{17, 33, 65} {
			pool = append(pool, lbfRing(n))
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// coldWarmups are the rings ratio-cold solves during set-up, so that heap
// growth and first-use costs are paid before timing. They never recur in
// the measured phase.
func coldWarmups() []ring {
	rng := rand.New(rand.NewSource(coldMaster + 1))
	return []ring{randomRing(rng, 20, 0), randomRing(rng, 24, 1)}
}

// warmSet is the warm path's pinned working set: 100 rings with n in
// [5, 12]. Its ring i has Zipf popularity rank i.
func warmSet() []ring {
	rng := rand.New(rand.NewSource(warmMaster))
	set := make([]ring, 100)
	for i := range set {
		set[i] = randomRing(rng, 5+rng.Intn(8), i)
	}
	return set
}

// freshRing draws rings of n vertices until one has 2n distinct
// relabelings with its agent, none of them a relabeling in taken, and adds
// them to taken. Small skewed rings are often all ones, and small rings
// often coincide up to rotation; a job store holds every job it ran, so
// such rings would run out of fresh jobs after a few passes.
func freshRing(rng *rand.Rand, n, i int, taken map[string]bool) ring {
	for {
		r := randomRing(rng, n, i)
		keys := map[string]bool{}
		for c := 0; c < 2*n; c++ {
			if k := r.relabel(label{n: n, rot: c % n, reflect: c >= n}).agentKey(); !taken[k] {
				keys[k] = true
			}
		}
		if len(keys) == 2*n {
			for k := range keys {
				taken[k] = true
			}
			return r
		}
	}
}

// jobCycle is one cycle of scan-jobs: two sweeps, a k-sybil scan, a
// coalition scan and a topology scan, in that order.
type jobCycle struct {
	sweepA, sweepB, ksybil, coalition ring
	members                           [2]int
}

// jobsPool draws n scan-jobs cycle specs from master; cycle c of a run
// runs spec c mod n, relabeled.
func jobsPool(master int64, n int) []jobCycle {
	rng := rand.New(rand.NewSource(master))
	taken := map[string]bool{}
	pool := make([]jobCycle, n)
	for i := range pool {
		c := jobCycle{
			sweepA:    freshRing(rng, 8+rng.Intn(5), i, taken),
			sweepB:    freshRing(rng, 8+rng.Intn(5), i+1, taken),
			ksybil:    freshRing(rng, 8+rng.Intn(5), i+2, taken),
			coalition: freshRing(rng, 8+rng.Intn(5), i, taken),
		}
		// The coalition ring's agent is its first member, so distinct
		// relabelings (by agentKey) are distinct coalition jobs.
		n := len(c.coalition.ws)
		c.members = [2]int{c.coalition.v, (c.coalition.v + 1 + rng.Intn(n-1)) % n}
		pool[i] = c
	}
	return pool
}
