package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/cert"
)

// TestScenarioKSybilK2MatchesSweep pins the k = 2 equivalence on the wire:
// the ksybil scenario at k = 2 answers the same utilities, honest baseline,
// best point and ratio as /v1/sweep for the same (graph, agent, grid) —
// canonical string for canonical string.
func TestScenarioKSybilK2MatchesSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ring := WireGraph{Ring: []string{"1", "3/2", "2", "1/2", "5"}}

	status, raw := postJSON(t, ts.URL, "/v1/sweep", SweepRequest{Graph: ring, V: 1, Grid: 12})
	if status != http.StatusOK {
		t.Fatalf("sweep: %d %s", status, raw)
	}
	var sw SweepResponse
	if err := json.Unmarshal(raw, &sw); err != nil {
		t.Fatal(err)
	}

	status, raw = postJSON(t, ts.URL, "/v1/scenario",
		ScenarioRequest{Kind: "ksybil", Graph: ring, V: 1, K: 2, Grid: 12})
	if status != http.StatusOK {
		t.Fatalf("scenario: %d %s", status, raw)
	}
	var sc ScenarioResponse
	if err := json.Unmarshal(raw, &sc); err != nil {
		t.Fatal(err)
	}
	ks := sc.KSybil
	if sc.Kind != "ksybil" || ks == nil {
		t.Fatalf("wrong payload: %s", raw)
	}
	if ks.Total != 13 || len(ks.Points) != 13 || len(sw.Points) != 13 {
		t.Fatalf("total %d scenario points %d sweep points %d", ks.Total, len(ks.Points), len(sw.Points))
	}
	for i, p := range ks.Points {
		if len(p.Comp) != 2 || p.Comp[0] != i || p.Comp[1] != 12-i {
			t.Fatalf("point %d composition %v", i, p.Comp)
		}
		if p.U != sw.Points[i].U {
			t.Fatalf("point %d: scenario %s sweep %s", i, p.U, sw.Points[i].U)
		}
	}
	if ks.Honest != sw.Honest || ks.BestU != sw.BestU || ks.Ratio != sw.Ratio {
		t.Fatalf("summary drift: scenario (%s, %s, %s) sweep (%s, %s, %s)",
			ks.Honest, ks.BestU, ks.Ratio, sw.Honest, sw.BestU, sw.Ratio)
	}
}

// TestScenarioJobsMatchInline is the core equivalence property of the three
// scenario job kinds: each job's final Result must be bit-identical to the
// /v1/scenario response of the same request, and resubmission dedupes.
func TestScenarioJobsMatchInline(t *testing.T) {
	_, ts := jobsTestServer(t)
	ring := WireGraph{Ring: []string{"128", "2", "128", "128", "512", "4", "32"}}
	cases := []struct {
		name  string
		total int
		req   ScenarioRequest
	}{
		{"ksybil", 28, ScenarioRequest{Kind: "ksybil", Graph: ring, V: 4, K: 3, Grid: 6}},
		{"coalition", 9, ScenarioRequest{Kind: "coalition", Graph: ring, Members: []int{5, 4}, Grid: 3}},
		{"topology", 3, ScenarioRequest{Kind: "topology", Families: []string{"ring", "tree", "er"}, Count: 1, N: 5, Grid: 3, Seed: 11}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, inline := postJSON(t, ts.URL, "/v1/scenario", tc.req)
			if status != http.StatusOK {
				t.Fatalf("inline: %d %s", status, inline)
			}
			resp, body := jobsPost(t, ts.URL+"/v1/jobs", JobSubmitRequest{Kind: tc.req.Kind, Scenario: &tc.req})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %d %s", resp.StatusCode, body)
			}
			var sub JobSubmitResponse
			if err := json.Unmarshal(body, &sub); err != nil {
				t.Fatal(err)
			}
			if sub.Job.Kind != tc.req.Kind || sub.Job.TotalPoints != tc.total {
				t.Fatalf("job %+v, want kind %s total %d", sub.Job, tc.req.Kind, tc.total)
			}
			done := waitJobState(t, ts.URL, sub.Job.ID, "done")
			if !bytes.Equal(bytes.TrimSpace(done.Result), bytes.TrimSpace(inline)) {
				t.Fatalf("job result differs from inline:\njob:    %s\ninline: %s", done.Result, inline)
			}
			// Resubmitting the identical scan dedupes to the finished job.
			resp, body = jobsPost(t, ts.URL+"/v1/jobs", JobSubmitRequest{Kind: tc.req.Kind, Scenario: &tc.req})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("resubmit: %d %s", resp.StatusCode, body)
			}
			var dup JobSubmitResponse
			if err := json.Unmarshal(body, &dup); err != nil {
				t.Fatal(err)
			}
			if !dup.Deduped || dup.Job.ID != sub.Job.ID {
				t.Fatalf("resubmission did not dedupe: %+v", dup)
			}
		})
	}
}

// TestScenarioJobCheckpointSeed replays a completed ksybil job's checkpoint
// prefix into a fresh server (the cluster router's failover path) and
// requires the re-placed job to resume — not restart — and still produce
// the bit-identical final Result.
func TestScenarioJobCheckpointSeed(t *testing.T) {
	_, tsA := jobsTestServer(t)
	req := ScenarioRequest{Kind: "ksybil", Graph: WireGraph{Ring: []string{"3", "1", "4", "1", "5"}}, V: 2, K: 3, Grid: 5}
	resp, body := jobsPost(t, tsA.URL+"/v1/jobs", JobSubmitRequest{Kind: "ksybil", Scenario: &req})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	doneA := waitJobState(t, tsA.URL, sub.Job.ID, "done")
	var detail WireJob
	jobsGet(t, tsA.URL+"/v1/jobs/"+sub.Job.ID, &detail)
	if len(detail.Points) != detail.TotalPoints || detail.TotalPoints == 0 {
		t.Fatalf("detail carries %d/%d points", len(detail.Points), detail.TotalPoints)
	}

	_, tsB := jobsTestServer(t)
	seedLen := 5
	resp, body = jobsPost(t, tsB.URL+"/v1/jobs", JobSubmitRequest{
		Kind:     "ksybil",
		Scenario: &req,
		Checkpoint: &JobCheckpoint{
			NextIndex: seedLen,
			Points:    detail.Points[:seedLen],
		},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("seeded submit: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Job.NextIndex != seedLen {
		t.Fatalf("seeded job starts at %d, want %d", sub.Job.NextIndex, seedLen)
	}
	doneB := waitJobState(t, tsB.URL, sub.Job.ID, "done")
	if !bytes.Equal(doneA.Result, doneB.Result) {
		t.Fatalf("seeded result differs:\nA: %s\nB: %s", doneA.Result, doneB.Result)
	}
}

// TestScenarioTopologyCertificate requires a cert-opted topology scan to
// attach a BD ratio certificate for the best ring point, checkable by the
// client without trusting the server.
func TestScenarioTopologyCertificate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, raw := postJSON(t, ts.URL, "/v1/scenario",
		ScenarioRequest{Kind: "topology", Families: []string{"ring"}, Count: 2, N: 5, Grid: 4, Seed: 3, Cert: true})
	if status != http.StatusOK {
		t.Fatalf("scenario: %d %s", status, raw)
	}
	var resp ScenarioResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Topology == nil || resp.Topology.Certificate == nil {
		t.Fatalf("no certificate attached: %s", raw)
	}
	if err := cert.Check(resp.Topology.Certificate); err != nil {
		t.Fatalf("client-side certificate check: %v", err)
	}
}

// TestScenarioValidation pins the stable error codes of the scenario
// request surface.
func TestScenarioValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ring := WireGraph{Ring: []string{"1", "2", "3", "4", "5"}}
	cases := []struct {
		name string
		code string
		req  ScenarioRequest
	}{
		{"missing_kind", CodeBadBody, ScenarioRequest{}},
		{"unknown_kind", CodeBadBody, ScenarioRequest{Kind: "quantum"}},
		{"k_too_big", CodeScenarioLimit, ScenarioRequest{Kind: "ksybil", Graph: ring, V: 0, K: 9}},
		{"points_blowup", CodeScenarioLimit, ScenarioRequest{Kind: "ksybil", Graph: ring, V: 0, K: 8, Grid: 512}},
		{"not_ring", CodeNotRing, ScenarioRequest{Kind: "ksybil", Graph: WireGraph{Path: []string{"1", "2", "3"}}, V: 0}},
		{"bad_agent", CodeBadAgent, ScenarioRequest{Kind: "ksybil", Graph: ring, V: 9}},
		{"bad_graph", CodeBadGraph, ScenarioRequest{Kind: "coalition", Graph: WireGraph{Ring: []string{"1", "-2", "3"}}, Members: []int{0, 1}}},
		{"dup_member", CodeBadAgent, ScenarioRequest{Kind: "coalition", Graph: ring, Members: []int{1, 1}}},
		{"member_range", CodeBadAgent, ScenarioRequest{Kind: "coalition", Graph: ring, Members: []int{0, 7}}},
		{"too_many_members", CodeScenarioLimit, ScenarioRequest{Kind: "coalition", Graph: ring, Members: []int{0, 1, 2, 3, 4}}},
		{"coalition_blowup", CodeScenarioLimit, ScenarioRequest{Kind: "coalition", Graph: ring, Members: []int{0, 1, 2, 3}, Grid: 9}},
		{"unknown_family", CodeUnknownTopology, ScenarioRequest{Kind: "topology", Families: []string{"torus"}}},
		{"dup_family", CodeBadBody, ScenarioRequest{Kind: "topology", Families: []string{"ring", "ring"}}},
		{"bad_dist", CodeBadBody, ScenarioRequest{Kind: "topology", Dist: "zipf"}},
		{"small_n", CodeScenarioLimit, ScenarioRequest{Kind: "topology", N: 4}},
		{"grid_one", CodeBadGrid, ScenarioRequest{Kind: "topology", Grid: 1}},
		{"cert_wrong_kind", CodeCertLimit, ScenarioRequest{Kind: "ksybil", Graph: ring, V: 0, Cert: true}},
		{"cert_bad_mech", CodeCertLimit, ScenarioRequest{Kind: "topology", Mechanism: "eqsplit", Cert: true}},
		{"cert_no_ring", CodeCertLimit, ScenarioRequest{Kind: "topology", Families: []string{"tree"}, Cert: true}},
		{"unknown_mech", CodeUnknownMechanism, ScenarioRequest{Kind: "ksybil", Graph: ring, V: 0, Mechanism: "quantum"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := postJSON(t, ts.URL, "/v1/scenario", tc.req)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d: %s", status, raw)
			}
			var er ErrorResponse
			if err := json.Unmarshal(raw, &er); err != nil || er.Code != tc.code {
				t.Fatalf("code %q (err %v), want %q: %s", er.Code, err, tc.code, raw)
			}
		})
	}
}

// TestScenarioJobKindConflict rejects a submission whose nested scenario
// kind contradicts the job kind.
func TestScenarioJobKindConflict(t *testing.T) {
	_, ts := jobsTestServer(t)
	ring := WireGraph{Ring: []string{"1", "2", "3"}}
	resp, body := jobsPost(t, ts.URL+"/v1/jobs", JobSubmitRequest{
		Kind:     "ksybil",
		Scenario: &ScenarioRequest{Kind: "coalition", Graph: ring, Members: []int{0, 1}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Code != CodeBadBody {
		t.Fatalf("code %q (err %v): %s", er.Code, err, body)
	}
}

// TestJobListKindFilter exercises the ?kind= filter of GET /v1/jobs.
func TestJobListKindFilter(t *testing.T) {
	_, ts := jobsTestServer(t)
	ring := WireGraph{Ring: []string{"1", "2", "3", "4", "5"}}
	resp, body := jobsPost(t, ts.URL+"/v1/jobs", JobSubmitRequest{Graph: ring, V: 1, Grid: 4})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: %d %s", resp.StatusCode, body)
	}
	sr := ScenarioRequest{Kind: "ksybil", Graph: ring, V: 1, K: 2, Grid: 4}
	resp, body = jobsPost(t, ts.URL+"/v1/jobs", JobSubmitRequest{Kind: "ksybil", Scenario: &sr})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ksybil submit: %d %s", resp.StatusCode, body)
	}
	var sub JobSubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, ts.URL, sub.Job.ID, "done")

	var list JobListResponse
	jobsGet(t, ts.URL+"/v1/jobs?kind=ksybil", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].Kind != "ksybil" {
		t.Fatalf("kind filter answered %+v", list.Jobs)
	}
	if list.Jobs[0].TotalPoints != 5 {
		t.Fatalf("total_points %d, want 5", list.Jobs[0].TotalPoints)
	}
	var all JobListResponse
	jobsGet(t, ts.URL+"/v1/jobs", &all)
	if len(all.Jobs) != 2 {
		t.Fatalf("unfiltered list has %d jobs", len(all.Jobs))
	}
	if resp := jobsGet(t, ts.URL+"/v1/jobs?kind=quantum", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind filter: %d", resp.StatusCode)
	}
}

// TestScenarioScanSpans: every scenario scan the server runs — inline
// /v1/scenario and the durable job of the same kind — is recorded as the
// engine's "scenario.<kind>" span, under server.compute for the inline
// request and under jobs.<kind> for the job.
func TestScenarioScanSpans(t *testing.T) {
	srv, ts := jobsTestServer(t)
	ring := WireGraph{Ring: []string{"3", "1", "4", "1", "5"}}
	reqs := []ScenarioRequest{
		{Kind: "ksybil", Graph: ring, V: 2, K: 3, Grid: 4},
		{Kind: "coalition", Graph: ring, Members: []int{0, 2}, Grid: 2},
		{Kind: "topology", Families: []string{"ring"}, Count: 1, N: 5, Grid: 2},
	}
	for _, req := range reqs {
		status, raw, id := postTraced(t, ts.URL, "/v1/scenario", req)
		if status != http.StatusOK {
			t.Fatalf("%s: %d %s", req.Kind, status, raw)
		}
		code, snap := getTrace(t, ts.URL, id)
		if code != http.StatusOK {
			t.Fatalf("%s trace: %d", req.Kind, code)
		}
		sp := snap.Root.Find("server.compute").Find("scenario." + req.Kind)
		if sp == nil || sp.Attr("mechanism") != "bd" {
			t.Fatalf("%s: inline trace lacks the scenario span: %v", req.Kind, snap.Root)
		}

		resp, body := jobsPost(t, ts.URL+"/v1/jobs", JobSubmitRequest{Kind: req.Kind, Scenario: &req})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s job: %d %s", req.Kind, resp.StatusCode, body)
		}
		var sub JobSubmitResponse
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		waitJobState(t, ts.URL, sub.Job.ID, "done")
		if !jobTraceHas(srv, "jobs."+req.Kind, "scenario."+req.Kind) {
			t.Fatalf("%s: no job trace holds the scenario span", req.Kind)
		}
	}
}

// jobTraceHas reports whether a retained "jobs.run" trace holds span child
// under span parent, waiting briefly for the trace to finish.
func jobTraceHas(srv *Server, parent, child string) bool {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		for id := uint64(srv.Collector().Stats().Finished) + 8; id > 0; id-- {
			snap, ok := srv.Collector().Get(id)
			if ok && snap.Name == "jobs.run" && snap.Root.Find(parent).Find(child) != nil {
				return true
			}
		}
	}
	return false
}
