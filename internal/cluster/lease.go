package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/wal"
)

// Lease state machine (see DESIGN.md):
//
//	grant ──► active ──renew──► active ──done──► retired
//	            │
//	            └── owner dead / TTL expired ──► re-placed (new grant on a
//	                survivor, seeded with the last observed checkpoint)
//
// The lease log is an internal/wal log (the framing of the jobs WAL) of
// JSON entries with three ops:
//
//   - "grant": full lease (job ID, owner, expiry, submission body);
//     fsync'd — an acknowledged placement must survive a router crash.
//   - "renew": expiry bump plus the checkpoint delta observed since the
//     last renewal; NOT fsync'd — losing a renewal costs recomputation of
//     a few points after a crash, never correctness (points are exact and
//     deterministic, so a stale seed just re-derives the lost tail).
//   - "done": the job reached a terminal state on its owner; fsync'd so a
//     restarted router does not resurrect finished work.
//
// Replay reduces the log to the live lease table: grant upserts, renew
// advances, done deletes. A torn tail (crash mid-append) is truncated,
// exactly like the jobs WAL.

// Lease is one durable job placement: job ID, owning node, and the
// checkpointed prefix the router has observed — everything needed to
// re-place the job on a survivor if the owner dies.
type Lease struct {
	JobID  string `json:"job_id"`
	Node   string `json:"node"`
	Kind   string `json:"kind"`
	Key    string `json:"key"` // placement key the owner was chosen by
	Expiry int64  `json:"expiry_unix_nano"`
	// Body is the original, validated POST /v1/jobs body; a re-placement
	// replays it (content addressing makes the job ID identical) with a
	// Checkpoint seed attached.
	Body      json.RawMessage         `json:"body"`
	NextIndex int                     `json:"next_index"`
	Points    []server.WireSweepPoint `json:"points,omitempty"`
}

type leaseEntry struct {
	Op        string                  `json:"op"` // grant | renew | done
	Lease     *Lease                  `json:"lease,omitempty"`
	ID        string                  `json:"id,omitempty"`
	Expiry    int64                   `json:"expiry_unix_nano,omitempty"`
	Start     int                     `json:"start,omitempty"`
	Points    []server.WireSweepPoint `json:"points,omitempty"`
	NextIndex int                     `json:"next_index,omitempty"`
}

// leaseLog is the crash-safe lease table. With an empty dir it degrades to
// an in-memory table: placements don't survive a router restart, but every
// in-process behavior (renewal, expiry, re-placement) is identical.
type leaseLog struct {
	mu      sync.Mutex
	leases  map[string]*Lease
	log     *wal.Log // nil in memory-only mode
	appends int64
	syncs   int64
}

func openLeaseLog(dir string) (*leaseLog, error) {
	l := &leaseLog{leases: make(map[string]*Lease)}
	if dir == "" {
		return l, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: lease dir: %w", err)
	}
	log, _, err := wal.Open(filepath.Join(dir, "leases.wal"), func(off int64, payload []byte) error {
		var e leaseEntry
		if err := json.Unmarshal(payload, &e); err != nil {
			return fmt.Errorf("lease log entry at offset %d: %w", off, err)
		}
		l.applyLocked(&e)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	l.log = log
	return l, nil
}

func (l *leaseLog) applyLocked(e *leaseEntry) {
	switch e.Op {
	case "grant":
		if e.Lease != nil {
			cp := *e.Lease
			l.leases[cp.JobID] = &cp
		}
	case "renew":
		ls, ok := l.leases[e.ID]
		if !ok {
			return
		}
		ls.Expiry = e.Expiry
		if len(e.Points) > 0 && e.Start <= len(ls.Points) {
			ls.Points = append(ls.Points[:e.Start], e.Points...)
		}
		if e.NextIndex > ls.NextIndex {
			ls.NextIndex = e.NextIndex
		}
	case "done":
		delete(l.leases, e.ID)
	}
}

// append logs one entry through the cluster.lease fault site. An injected
// or real write error leaves the in-memory table untouched — the caller
// degrades (the placement stays unrecorded and is retried) rather than
// diverging from its own log.
func (l *leaseLog) append(ctx context.Context, e *leaseEntry, sync bool) error {
	if err := fault.Hit(ctx, fault.SiteClusterLease); err != nil {
		return err
	}
	if l.log != nil {
		payload, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("cluster: encode lease entry: %w", err)
		}
		if err := l.log.Append(payload, sync); err != nil {
			return fmt.Errorf("cluster: lease log: %w", err)
		}
		l.appends++
		if sync {
			l.syncs++
		}
	}
	l.applyLocked(e)
	return nil
}

// grant places jobID on node under a TTL starting now.
func (l *leaseLog) grant(ctx context.Context, ls *Lease) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.append(ctx, &leaseEntry{Op: "grant", Lease: ls}, true)
}

// renew bumps jobID's expiry and records the checkpoint delta since the
// last observation (points [start, start+len)).
func (l *leaseLog) renew(ctx context.Context, id string, expiry time.Time, start int, pts []server.WireSweepPoint, next int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.leases[id]; !ok {
		return fmt.Errorf("cluster: renew of unknown lease %s", id)
	}
	return l.append(ctx, &leaseEntry{
		Op: "renew", ID: id, Expiry: expiry.UnixNano(),
		Start: start, Points: pts, NextIndex: next,
	}, false)
}

// retire removes jobID's lease (the job reached a terminal state).
func (l *leaseLog) retire(ctx context.Context, id string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.leases[id]; !ok {
		return nil
	}
	return l.append(ctx, &leaseEntry{Op: "done", ID: id}, true)
}

// get returns a copy of jobID's lease.
func (l *leaseLog) get(id string) (Lease, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ls, ok := l.leases[id]
	if !ok {
		return Lease{}, false
	}
	cp := *ls
	cp.Points = append([]server.WireSweepPoint(nil), ls.Points...)
	return cp, true
}

// all returns copies of every live lease.
func (l *leaseLog) all() []Lease {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Lease, 0, len(l.leases))
	for _, ls := range l.leases {
		cp := *ls
		cp.Points = append([]server.WireSweepPoint(nil), ls.Points...)
		out = append(out, cp)
	}
	return out
}

func (l *leaseLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log == nil {
		return nil
	}
	err := l.log.Close()
	l.log = nil
	return err
}

func (l *leaseLog) stats() (count int, appends, syncs int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.leases), l.appends, l.syncs
}
