package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/jobs"
)

// The job contract: for every job kind, the finished result bytes and the
// checkpointed points are pinned as golden files, and a data dir written by
// an earlier build (testdata/jobs_datadir) — one job of each kind cut off
// mid-scan plus one finished job — must recover and finish byte-identically
// to those goldens. Together they pin the wire bodies, job keys and IDs,
// persisted specs and checkpoint encodings of the durable jobs API.

// jobContractCase is one pinned job submission.
type jobContractCase struct {
	name string
	req  JobSubmitRequest
}

func jobContractCases() []jobContractCase {
	ring := WireGraph{Ring: []string{"3", "1", "4", "1", "5"}}
	return []jobContractCase{
		{"sweep_bd", JobSubmitRequest{Graph: ring, V: 2, Grid: 12}},
		{"sweep_eqsplit", JobSubmitRequest{Graph: ring, V: 2, Grid: 6, Mechanism: "eqsplit"}},
		{"enumerate", JobSubmitRequest{Kind: "enumerate", Enum: &EnumJobRequest{MinN: 3, MaxN: 4, Levels: 2, Grid: 4, Eps: "3/5"}}},
		{"tournament", JobSubmitRequest{Kind: "tournament", Tournament: &TournamentRequest{
			Instances: []TournamentWireInstance{
				{Graph: ring, V: 2},
				{Graph: WireGraph{Ring: []string{"9", "1", "1", "1", "1"}}, V: 0},
			},
			Mechanisms: []string{"bd", "eqsplit"},
			Grid:       6,
		}}},
		{"ksybil", JobSubmitRequest{Kind: "ksybil", Scenario: &ScenarioRequest{Graph: ring, V: 2, K: 3, Grid: 5}}},
		{"coalition", JobSubmitRequest{Kind: "coalition", Scenario: &ScenarioRequest{Graph: ring, Members: []int{0, 2}, Grid: 3}}},
		{"topology", JobSubmitRequest{Kind: "topology", Scenario: &ScenarioRequest{
			Families: []string{"ring", "tree"}, Count: 2, N: 5, Grid: 3, Seed: 7,
		}}},
	}
}

// submitJob posts one submission and returns the decoded answer.
func submitJob(t *testing.T, base string, req JobSubmitRequest) (int, JobSubmitResponse) {
	t.Helper()
	resp, body := jobsPost(t, base+"/v1/jobs", req)
	var sub JobSubmitResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
	} else {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	return resp.StatusCode, sub
}

// checkGolden compares got with testdata/golden/name, rewriting it under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted:\ngot:  %s\nwant: %s", path, got, want)
	}
}

// jobGoldenBytes renders a finished job's result and checkpoint points in
// their pinned golden form.
func jobGoldenBytes(t *testing.T, j WireJob) (result, points []byte) {
	t.Helper()
	pts, err := json.Marshal(j.Points)
	if err != nil {
		t.Fatal(err)
	}
	return append(append([]byte(nil), j.Result...), '\n'), append(pts, '\n')
}

// TestJobContractGoldens pins every kind's finished result bytes and
// checkpoint points.
func TestJobContractGoldens(t *testing.T) {
	_, ts := jobsTestServer(t)
	for _, tc := range jobContractCases() {
		t.Run(tc.name, func(t *testing.T) {
			status, sub := submitJob(t, ts.URL, tc.req)
			if status != http.StatusAccepted {
				t.Fatalf("submit status %d", status)
			}
			done := waitJobState(t, ts.URL, sub.Job.ID, "done")
			if done.NextIndex != done.TotalPoints || len(done.Points) != done.TotalPoints {
				t.Fatalf("done job covers %d/%d points (next %d)", len(done.Points), done.TotalPoints, done.NextIndex)
			}
			result, points := jobGoldenBytes(t, done)
			checkGolden(t, "job_"+tc.name+"_result.json", result)
			checkGolden(t, "job_"+tc.name+"_points.json", points)
		})
	}
}

// jobsDataDir is the committed data dir written by an earlier build.
var jobsDataDir = filepath.Join("testdata", "jobs_datadir")

// TestJobDataDirRecovers opens the committed data dir, recovers it, and
// finishes every job: each result must match its golden byte for byte.
// Resubmitting each case must dedupe to the recovered job, which pins the
// job keys and IDs as well.
func TestJobDataDirRecovers(t *testing.T) {
	if *updateGolden {
		writeJobsDataDir(t)
	}
	dir := t.TempDir()
	for _, name := range []string{"jobs.wal"} {
		raw, err := os.ReadFile(filepath.Join(jobsDataDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, ts := newTestServer(t, Config{DataDir: dir, MaxQueueDepth: -1})
	defer srv.Close()
	for _, tc := range jobContractCases() {
		t.Run(tc.name, func(t *testing.T) {
			status, sub := submitJob(t, ts.URL, tc.req)
			if status != http.StatusOK || !sub.Deduped {
				t.Fatalf("resubmission did not dedupe to the recovered job: %d %+v", status, sub)
			}
			done := waitJobState(t, ts.URL, sub.Job.ID, "done")
			result, points := jobGoldenBytes(t, done)
			checkGolden(t, "job_"+tc.name+"_result.json", result)
			checkGolden(t, "job_"+tc.name+"_points.json", points)
		})
	}
}

// writeJobsDataDir regenerates the committed data dir, only when it is
// absent: the point of the fixture is that an earlier build wrote it. Every
// case runs to completion on a scratch server; the fixture store then
// holds each job as a crashed worker leaves it — running, with the first
// half of its points checkpointed one at a time — except the first case,
// which is finished.
func writeJobsDataDir(t *testing.T) {
	if _, err := os.Stat(jobsDataDir); err == nil {
		return
	}
	srcSrv, ts := jobsTestServer(t)
	defer srcSrv.Close()
	ctx := context.Background()
	st, err := jobs.Open(jobsDataDir, jobs.StoreConfig{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for n, tc := range jobContractCases() {
		_, sub := submitJob(t, ts.URL, tc.req)
		waitJobState(t, ts.URL, sub.Job.ID, "done")
		src, ok := srcSrv.jobStore.Get(sub.Job.ID)
		if !ok {
			t.Fatalf("%s: job %s missing", tc.name, sub.Job.ID)
		}
		rec, _, err := st.Submit(ctx, jobs.Submission{Key: src.Key, Kind: src.Kind, Spec: src.Spec})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Update(ctx, rec.ID, func(r *jobs.Record) error {
			r.State = jobs.StateRunning
			r.StartedUnixNano = time.Now().UnixNano()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		upto := len(src.Points) / 2
		if n == 0 {
			upto = len(src.Points)
		}
		for i := 0; i < upto; i++ {
			if err := st.AppendPoints(ctx, rec.ID, i, src.Points[i:i+1]); err != nil {
				t.Fatal(err)
			}
		}
		if n == 0 {
			if _, err := st.Update(ctx, rec.ID, func(r *jobs.Record) error {
				r.State = jobs.StateDone
				r.Result = src.Result
				r.FinishedUnixNano = time.Now().UnixNano()
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}
