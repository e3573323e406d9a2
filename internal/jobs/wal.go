package jobs

// The write-ahead log is a sequence of internal/wal frames, each payload
// one JSON walEntry. Everything before a torn tail was either fsync'd
// (state transitions) or is a checkpoint delta whose loss only costs
// recomputation.

// walEntry is one logged mutation. Op selects the shape:
//
//   - "job": Job is the full record sans Points; replay upserts it and
//     truncates any resident points to Job.NextIndex (so a requeued or
//     resubmitted job's stale tail is dropped, and snapshot+stale-WAL
//     replay converges — every truncated point reappears from a later
//     "points" entry in the same log).
//   - "points": a checkpoint delta: Points covers work units
//     [Start, Start+len(Points)) of job ID.
type walEntry struct {
	Op     string  `json:"op"`
	Job    *Record `json:"job,omitempty"`
	ID     string  `json:"id,omitempty"`
	Start  int     `json:"start,omitempty"`
	Points []Point `json:"points,omitempty"`
}
