// Package scan is the one runner behind every grid search this system
// serves: the two-identity split sweep (sybil, mechanism), the k-identity,
// coalition and topology scenario scans (scenario), tournaments
// (mechanism), certification enumerations (cert/enum), and the durable
// jobs built on all of them (server).
//
// A scan is a pinned, index-addressed list of independent points: point i
// means the same thing in every process that ever evaluates it. Run owns
// the per-point loop once — the context check, the kind's fault site, the
// per-point hook through which jobs checkpoint, resumption from a start
// index after an already-evaluated prefix, and the classification of
// errors: a context error truncates the run to its contiguous completed
// prefix (a resumable partial result), any other error fails it. Best and
// Ratio are the shared fold: the earliest strict maximum and the incentive
// ratio rule.
package scan

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/fault"
	"repro/internal/numeric"
	"repro/internal/par"
)

// Scan is an index-addressed scan of Len independent points.
type Scan[P any] interface {
	Len() int
	Eval(ctx context.Context, i int) (P, error)
}

// Options tunes Run. The zero value runs every point sequentially from 0.
type Options[P any] struct {
	// Start is the first index evaluated, in [0, Len].
	Start int
	// Prefix holds already-evaluated points — a checkpoint — that end at
	// Start: they re-enter the result verbatim, ahead of the new points.
	Prefix []P
	// Workers > 1 evaluates up to that many points in parallel. Runs with
	// an OnPoint hook are always sequential and ascending.
	Workers int
	// Site is the fault-injection site hit before every point ("" = none).
	Site string
	// OnPoint, when set, is called after each point in ascending index
	// order. An error fails the run: a checkpoint that cannot be written
	// must not pass for a merely interrupted scan.
	OnPoint func(i int, p P) error
}

// Result is the outcome of Run. Points covers indices [Start, NextIndex),
// prefix included. Partial reports that a context error cut the run short;
// rerunning from NextIndex with Points as the prefix completes it, bit for
// bit, because points are independent and exact.
type Result[P any] struct {
	Points    []P
	Partial   bool
	Start     int
	NextIndex int
}

// Run evaluates s from opts.Start to its end. A failed point fails the run
// with the error "point i: …".
func Run[P any](ctx context.Context, s Scan[P], opts Options[P]) (*Result[P], error) {
	n := s.Len()
	if opts.Start < 0 || opts.Start > n {
		return nil, fmt.Errorf("start index %d outside [0, %d]", opts.Start, n)
	}
	if len(opts.Prefix) > opts.Start {
		return nil, fmt.Errorf("prefix of %d points ends past start index %d", len(opts.Prefix), opts.Start)
	}
	res := &Result[P]{
		Points: append(make([]P, 0, len(opts.Prefix)+n-opts.Start), opts.Prefix...),
		Start:  opts.Start - len(opts.Prefix),
	}
	point := func(ctx context.Context, i int) (P, error) {
		if err := ctx.Err(); err != nil {
			var zero P
			return zero, err
		}
		if opts.Site != "" {
			if err := fault.Hit(ctx, opts.Site); err != nil {
				var zero P
				return zero, err
			}
		}
		return s.Eval(ctx, i)
	}
	if opts.OnPoint != nil || opts.Workers <= 1 {
		for i := opts.Start; i < n; i++ {
			p, err := point(ctx, i)
			if err != nil {
				if isCancel(err) {
					res.Partial = true
					break
				}
				return nil, fmt.Errorf("point %d: %w", i, err)
			}
			res.Points = append(res.Points, p)
			if opts.OnPoint != nil {
				if err := opts.OnPoint(i, p); err != nil {
					return nil, fmt.Errorf("point %d: %w", i, err)
				}
			}
		}
		res.NextIndex = res.Start + len(res.Points)
		return res, nil
	}

	m, base := n-opts.Start, len(res.Points)
	res.Points = res.Points[:base+m]
	errs := par.MapCtx(ctx, m, opts.Workers, func(ctx context.Context, k int) error {
		p, err := point(ctx, opts.Start+k)
		res.Points[base+k] = p
		return err
	})
	// Context errors truncate to the completed prefix; anything else fails
	// the call, so a broken run never passes for an interrupted one.
	completed := m
	for k, err := range errs {
		if err == nil {
			continue
		}
		if !isCancel(err) {
			return nil, fmt.Errorf("point %d: %w", opts.Start+k, err)
		}
		if k < completed {
			completed = k
		}
	}
	res.Points = res.Points[:base+completed]
	res.Partial = completed < m
	res.NextIndex = res.Start + len(res.Points)
	return res, nil
}

func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Best returns the index of the earliest maximum of pts under less — the
// point strictly above every earlier one and at least every later one — or
// −1 when pts is empty. Certificates record and re-verify this tie-break.
func Best[P any](pts []P, less func(a, b P) bool) int {
	if len(pts) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(pts); i++ {
		if less(pts[best], pts[i]) {
			best = i
		}
	}
	return best
}

// Ratio is the incentive ratio rule: best/honest when honest > 0, exactly
// 1 when both are zero, and an error — never a silent ∞ — when a positive
// utility arises from zero honest utility.
func Ratio(best, honest numeric.Rat) (numeric.Rat, error) {
	switch {
	case honest.Sign() > 0:
		return best.Div(honest), nil
	case best.Sign() > 0:
		return numeric.Rat{}, fmt.Errorf("positive attack utility %v from zero honest utility", best)
	default:
		return numeric.One, nil
	}
}
