package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/jobs"
)

// checkpointSpecs are persisted specs of every job kind, matching the
// contract cases of jobcontract_test.go, in job-kind table order.
var checkpointSpecs = []struct{ kind, spec string }{
	{"sweep", `{"graph":{"ring":["3","1","4","1","5"]},"v":2,"grid":12}`},
	{"enumerate", `{"min_n":3,"max_n":4,"levels":2,"grid":4,"eps":"3/5","total":8}`},
	{"tournament", `{"instances":[{"graph":{"ring":["3","1","4","1","5"]},"v":2},{"graph":{"ring":["9","1","1","1","1"]},"v":0}],"mechanisms":["bd","eqsplit"],"grid":6,"total":4}`},
	{"ksybil", `{"kind":"ksybil","graph":{"ring":["3","1","4","1","5"]},"v":2,"k":3,"grid":5,"total":12}`},
	{"coalition", `{"kind":"coalition","graph":{"ring":["3","1","4","1","5"]},"grid":3,"members":[0,2],"total":9}`},
	{"topology", `{"kind":"topology","grid":3,"families":["ring","tree"],"count":2,"n":5,"seed":7,"dist":"uniform","total":4}`},
}

func parsedCheckpointSpec(t testing.TB, k int) jobSpec {
	t.Helper()
	c := checkpointSpecs[k]
	spec, err := jobKinds[c.kind].parse([]byte(c.spec))
	if err != nil {
		t.Fatalf("%s spec: %v", c.kind, err)
	}
	return spec
}

// recode decodes checkpoint point i through the spec's typed codec and
// encodes the result again.
func recode(spec jobSpec, i int, p jobs.Point) (jobs.Point, error) {
	switch sp := spec.(type) {
	case *sweepJobSpec:
		return recodeWith(sweepCodec, i, p)
	case *enumJobSpec:
		return recodeWith(enumCodec, i, p)
	case *tournamentJobSpec:
		return recodeWith(tournamentCodec, i, p)
	case *scenarioJobSpec:
		switch sp.Kind {
		case "ksybil":
			return recodeWith(sp.ksybilCodec(), i, p)
		case "coalition":
			return recodeWith(sp.coalitionCodec(), i, p)
		case "topology":
			return recodeWith(topologyCodec, i, p)
		}
	}
	panic("no codec for spec")
}

func recodeWith[P any](c pointCodec[P], i int, p jobs.Point) (jobs.Point, error) {
	v, err := c.decode(i, p)
	if err != nil {
		return jobs.Point{}, err
	}
	return c.encode(i, v)
}

// FuzzJobCheckpoint drives every kind's checkpoint decoder, reached through
// the job-kind table, with arbitrary points: a decode never panics, a
// point the submission check accepts re-encodes to exactly its own bytes —
// the property that makes a seeded prefix re-enter its result verbatim —
// and every point the check accepts, a resumed run decodes too. The seed
// corpus is every pinned golden checkpoint point plus mangled variants.
func FuzzJobCheckpoint(f *testing.F) {
	for k, c := range checkpointSpecs {
		name := c.kind
		if name == "sweep" {
			name = "sweep_bd"
		}
		raw, err := os.ReadFile(filepath.Join("testdata", "golden", "job_"+name+"_points.json"))
		if err != nil {
			f.Fatal(err)
		}
		var pts []WireSweepPoint
		if err := json.Unmarshal(raw, &pts); err != nil {
			f.Fatal(err)
		}
		for i, p := range pts {
			f.Add(uint8(k), uint16(i), p.W1, p.U)
			f.Add(uint8(k), uint16(i+1), p.W1, p.U)
			f.Add(uint8(k), uint16(i), p.W1+",1", strings.Replace(p.U, ",", ",\"1\",", 1))
		}
	}
	f.Add(uint8(4), uint16(0), "1,1", `{"joint":"1000","members":["1000"]}`)
	f.Add(uint8(0), uint16(0), "2/4", "1")
	f.Add(uint8(1), uint16(0), "r3:1,1,1", "!")
	specs := make([]jobSpec, len(checkpointSpecs))
	for k := range specs {
		specs[k] = parsedCheckpointSpec(f, k)
	}
	f.Fuzz(func(t *testing.T, k uint8, i uint16, w1, u string) {
		spec := specs[int(k)%len(specs)]
		p := jobs.Point{W1: w1, U: u}
		checkErr := spec.check(int(i), p)
		q, err := recode(spec, int(i), p)
		for _, e := range []error{checkErr, err} {
			if e != nil && !strings.HasPrefix(e.Error(), "checkpoint ") {
				t.Fatalf("error %q does not name the checkpoint point", e)
			}
		}
		if checkErr != nil {
			return
		}
		if err != nil {
			t.Fatalf("checked point %+v does not decode: %v", p, err)
		}
		if q != p {
			t.Fatalf("accepted point %+v re-encodes to %+v", p, q)
		}
	})
}

// TestRecoveredNonCanonicalCheckpointFinishes: a resumed run decodes its
// prefix without the submission's canonical-form check, so a seed spelled
// non-canonically ("2/4", "0.5") — which servers before the check accepted
// and may still hold in their WAL — finishes, and the result carries the
// canonical spelling exactly as an uninterrupted run writes it.
func TestRecoveredNonCanonicalCheckpointFinishes(t *testing.T) {
	srv, _ := jobsTestServer(t)
	ctx := context.Background()
	for k, c := range checkpointSpecs {
		if c.kind == "enumerate" {
			continue // its points are a key and a ratio string, kept verbatim
		}
		spec := parsedCheckpointSpec(t, k)
		full, err := spec.run(ctx, srv, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(full)
		if err != nil {
			t.Fatal(err)
		}
		// Capture the first checkpoint point, then stop the run: its error
		// is the checkpoint hook's own and carries nothing to check.
		var first jobs.Point
		_, _ = spec.run(ctx, srv, 0, nil, func(i int, pts []jobs.Point) error {
			if i == 0 {
				first = pts[0]
			}
			return context.Canceled
		})
		spelled := respell(first)
		if spelled == first {
			t.Fatalf("%s: no rational to respell in %+v", c.kind, first)
		}
		if err := spec.check(0, spelled); err == nil {
			t.Fatalf("%s: submission check accepted non-canonical %+v", c.kind, spelled)
		}
		got, err := spec.run(ctx, srv, 1, []jobs.Point{spelled}, nil)
		if err != nil {
			t.Fatalf("%s: resumed run over %+v: %v", c.kind, spelled, err)
		}
		raw, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, want) {
			t.Fatalf("%s: resumed result differs from the uninterrupted run", c.kind)
		}
	}
}

// respell rewrites the first canonical rational of a checkpoint point — a
// bare utility, or the first quoted rational of a JSON payload — as the
// equal fraction n·2/2.
func respell(p jobs.Point) jobs.Point {
	double := func(s string) string {
		r, err := DecodeRat(s)
		if err != nil {
			return s
		}
		return r.Num().String() + "0/" + r.Denom().String() + "0"
	}
	if !strings.HasPrefix(p.U, "{") {
		if r := double(p.U); r != p.U {
			p.U = r
			return p
		}
		p.W1 = double(p.W1)
		return p
	}
	var obj map[string]any
	if json.Unmarshal([]byte(p.U), &obj) != nil {
		return p
	}
	for _, key := range []string{"joint", "honest", "efficiency"} {
		if s, ok := obj[key].(string); ok {
			obj[key] = double(s)
			raw, _ := json.Marshal(obj)
			p.U = string(raw)
			return p
		}
	}
	return p
}

// TestSeededCheckpointShapeRejected: a seeded checkpoint point whose shape
// disagrees with the spec — a coalition point with one member utility for
// a two-member coalition, a k-identity composition of the wrong length —
// is answered 400 at submission. Before, the coalition seed was accepted
// and the job failed later on an out-of-range index in the runner.
func TestSeededCheckpointShapeRejected(t *testing.T) {
	_, ts := jobsTestServer(t)
	ring := WireGraph{Ring: []string{"3", "1", "4", "1", "5"}}
	cases := []struct {
		name string
		req  JobSubmitRequest
		pt   WireSweepPoint
	}{
		{"coalition", JobSubmitRequest{Kind: "coalition", Scenario: &ScenarioRequest{Graph: ring, Members: []int{0, 2}, Grid: 2}},
			WireSweepPoint{W1: "1,1", U: `{"joint":"1000","members":["1000"]}`}},
		{"coalition_digits", JobSubmitRequest{Kind: "coalition", Scenario: &ScenarioRequest{Graph: ring, Members: []int{0, 2}, Grid: 2}},
			WireSweepPoint{W1: "1", U: `{"joint":"2","members":["1","1"]}`}},
		{"ksybil", JobSubmitRequest{Kind: "ksybil", Scenario: &ScenarioRequest{Graph: ring, V: 2, K: 3, Grid: 4}},
			WireSweepPoint{W1: "0,4", U: "1"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.req.Checkpoint = &JobCheckpoint{NextIndex: 1, Points: []WireSweepPoint{tc.pt}}
			resp, body := jobsPost(t, ts.URL+"/v1/jobs", tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("seeded submit: %d %s", resp.StatusCode, body)
			}
			var e ErrorResponse
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatal(err)
			}
			if e.Code != CodeBadBody || !strings.HasPrefix(e.Message, "checkpoint 0: ") {
				t.Fatalf("error %+v", e)
			}
		})
	}
}

// TestRecoveredCheckpointShapeFailsJob: the run reads its prefix through
// the same decoder, so a malformed point that reached the store fails the
// run with the point's index instead of a panic.
func TestRecoveredCheckpointShapeFailsJob(t *testing.T) {
	srv, _ := jobsTestServer(t)
	spec := parsedCheckpointSpec(t, 4) // coalition, members [0, 2]
	bad := jobs.Point{W1: "1,1", U: `{"joint":"1000","members":["1000"]}`}
	_, err := spec.run(context.Background(), srv, 1, []jobs.Point{bad}, nil)
	if err == nil || !strings.HasPrefix(err.Error(), "checkpoint 0: ") {
		t.Fatalf("run over a malformed prefix: %v", err)
	}
}

// TestTournamentCheckpointRatLimit: tournament cell rationals go through
// DecodeRat, so a seeded cell with a rational over the wire limit is
// rejected like any other over-long rational.
func TestTournamentCheckpointRatLimit(t *testing.T) {
	spec := parsedCheckpointSpec(t, 2)
	long := strings.Repeat("7", maxRatLen+1)
	p := jobs.Point{W1: "0", U: `{"mechanism":"bd","efficiency":"` + long + `","fairness":"1","honest":"1","best_w1":"1","best_u":"1","ratio":"1"}`}
	if err := spec.check(0, p); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("over-long cell rational: %v", err)
	}
}
