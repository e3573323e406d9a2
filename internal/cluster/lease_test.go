package cluster

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/server"
)

func pts(vals ...string) []server.WireSweepPoint {
	out := make([]server.WireSweepPoint, 0, len(vals)/2)
	for i := 0; i+1 < len(vals); i += 2 {
		out = append(out, server.WireSweepPoint{W1: vals[i], U: vals[i+1]})
	}
	return out
}

// TestLeaseLogReplay: grants, renewals, and retirements reduce to the same
// live table after a close/reopen cycle — the invariant a router restart
// depends on.
func TestLeaseLogReplay(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l, err := openLeaseLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	body := json.RawMessage(`{"graph":{"ring":["1","2"]},"grid":8}`)
	if err := l.grant(ctx, &Lease{JobID: "keep", Node: "http://a", Kind: "sweep", Key: "k1", Expiry: 10, Body: body}); err != nil {
		t.Fatal(err)
	}
	if err := l.grant(ctx, &Lease{JobID: "drop", Node: "http://b", Kind: "sweep", Key: "k2", Expiry: 10, Body: body}); err != nil {
		t.Fatal(err)
	}
	exp := time.Unix(0, 999)
	if err := l.renew(ctx, "keep", exp, 0, pts("0", "1", "1/2", "3/2"), 2); err != nil {
		t.Fatal(err)
	}
	// A second renewal splices at its start offset instead of appending
	// blindly, so a re-observed prefix never duplicates points.
	if err := l.renew(ctx, "keep", exp, 2, pts("1", "2"), 3); err != nil {
		t.Fatal(err)
	}
	if err := l.retire(ctx, "drop"); err != nil {
		t.Fatal(err)
	}
	if err := l.renew(ctx, "ghost", exp, 0, nil, 0); err == nil {
		t.Fatal("renewing an unknown lease must fail")
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	l2, err := openLeaseLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.close()
	all := l2.all()
	if len(all) != 1 {
		t.Fatalf("replayed table has %d leases, want 1: %+v", len(all), all)
	}
	ls, ok := l2.get("keep")
	if !ok {
		t.Fatal("lease 'keep' lost across replay")
	}
	if ls.Node != "http://a" || ls.Expiry != exp.UnixNano() || ls.NextIndex != 3 {
		t.Fatalf("replayed lease wrong: %+v", ls)
	}
	if len(ls.Points) != 3 || ls.Points[2].W1 != "1" || ls.Points[2].U != "2" {
		t.Fatalf("replayed checkpoint wrong: %+v", ls.Points)
	}
	if string(ls.Body) != string(body) {
		t.Fatalf("replayed body wrong: %s", ls.Body)
	}
}

// TestLeaseLogTornTail: a crash mid-append leaves a partial frame; reopening
// truncates it and keeps everything before it.
func TestLeaseLogTornTail(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	l, err := openLeaseLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.grant(ctx, &Lease{JobID: "j1", Node: "http://a", Key: "k", Expiry: 5}); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "leases.wal")
	intact, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible frame header promising more bytes than follow.
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 'x'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := openLeaseLog(dir)
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	if _, ok := l2.get("j1"); !ok {
		t.Fatal("intact lease lost to torn-tail truncation")
	}
	// The log must be appendable again after truncation.
	if err := l2.grant(ctx, &Lease{JobID: "j2", Node: "http://b", Key: "k", Expiry: 6}); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	if err := l2.close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() <= intact.Size() {
		t.Fatalf("log did not grow past the truncated tail: %d -> %d", intact.Size(), after.Size())
	}

	l3, err := openLeaseLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.close()
	if len(l3.all()) != 2 {
		t.Fatalf("final table has %d leases, want 2", len(l3.all()))
	}
}

// TestLeaseLogMemoryOnly: with no data dir the table behaves identically
// minus durability — and never touches the filesystem.
func TestLeaseLogMemoryOnly(t *testing.T) {
	ctx := context.Background()
	l, err := openLeaseLog("")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.grant(ctx, &Lease{JobID: "j", Node: "http://a", Key: "k", Expiry: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.renew(ctx, "j", time.Unix(0, 2), 0, pts("0", "1"), 1); err != nil {
		t.Fatal(err)
	}
	ls, ok := l.get("j")
	if !ok || ls.Expiry != 2 || len(ls.Points) != 1 {
		t.Fatalf("memory-only lease wrong: %+v (ok=%v)", ls, ok)
	}
	if _, appends, syncs := l.stats(); appends != 0 || syncs != 0 {
		t.Fatalf("memory-only mode counted file appends: %d/%d", appends, syncs)
	}
	if err := l.retire(ctx, "j"); err != nil {
		t.Fatal(err)
	}
	if len(l.all()) != 0 {
		t.Fatal("retired lease still live")
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
}

// leaseFixtureDir holds a lease log written by an earlier build
// (leases.wal) and the live table it must replay to (leases.json).
var leaseFixtureDir = filepath.Join("testdata", "leases")

// TestLeaseLogFixtureReplays reopens the committed lease log and compares
// the replayed table with the pinned one, so the lease framing and entry
// encoding stay readable across refactors. When the fixture is absent it
// is written (then committed) rather than compared.
func TestLeaseLogFixtureReplays(t *testing.T) {
	wal := filepath.Join(leaseFixtureDir, "leases.wal")
	if _, err := os.Stat(wal); os.IsNotExist(err) {
		writeLeaseFixture(t)
	}
	raw, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "leases.wal"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := openLeaseLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	got, err := json.MarshalIndent(sortedLeases(l), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(leaseFixtureDir, "leases.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("replayed lease table drifted:\ngot:  %s\nwant: %s", got, want)
	}
}

func sortedLeases(l *leaseLog) []Lease {
	all := l.all()
	for i := 1; i < len(all); i++ {
		for j := i; j > 0 && all[j].JobID < all[j-1].JobID; j-- {
			all[j], all[j-1] = all[j-1], all[j]
		}
	}
	return all
}

// writeLeaseFixture records grants, renewals (one splicing at its start
// offset) and a retirement, then pins the replayed table.
func writeLeaseFixture(t *testing.T) {
	ctx := context.Background()
	if err := os.MkdirAll(leaseFixtureDir, 0o755); err != nil {
		t.Fatal(err)
	}
	l, err := openLeaseLog(leaseFixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	body := json.RawMessage(`{"graph":{"ring":["3","1","4","1","5"]},"v":2,"grid":8}`)
	for _, ls := range []*Lease{
		{JobID: "ja", Node: "http://a", Kind: "sweep", Key: "ka", Expiry: 100, Body: body},
		{JobID: "jb", Node: "http://b", Kind: "ksybil", Key: "kb", Expiry: 200, Body: body},
		{JobID: "jc", Node: "http://c", Kind: "sweep", Key: "kc", Expiry: 300, Body: body},
	} {
		if err := l.grant(ctx, ls); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		id    string
		exp   int64
		start int
		pts   []server.WireSweepPoint
		next  int
	}{
		{"ja", 150, 0, pts("0", "1", "1/8", "9/8"), 2},
		{"jb", 250, 0, pts("0,0,5", "3/2"), 1},
		{"ja", 160, 1, pts("1/8", "9/8", "1/4", "5/4"), 3},
		{"jb", 260, 1, nil, 1},
	}
	for _, s := range steps {
		if err := l.renew(ctx, s.id, time.Unix(0, s.exp), s.start, s.pts, s.next); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.retire(ctx, "jc"); err != nil {
		t.Fatal(err)
	}
	table, err := json.MarshalIndent(sortedLeases(l), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(leaseFixtureDir, "leases.json"), table, 0o644); err != nil {
		t.Fatal(err)
	}
}
