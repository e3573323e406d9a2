package scan

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/numeric"
)

// squares is a scan whose point i is i², optionally failing at one index
// and calling a hook before every evaluation.
type squares struct {
	n      int
	failAt int
	before func(i int)
}

var errBoom = errors.New("boom")

func (s squares) Len() int { return s.n }

func (s squares) Eval(_ context.Context, i int) (int, error) {
	if s.before != nil {
		s.before(i)
	}
	if i == s.failAt {
		return 0, errBoom
	}
	return i * i, nil
}

func want(from, to int) []int {
	out := []int{}
	for i := from; i < to; i++ {
		out = append(out, i*i)
	}
	return out
}

func TestRunSequentialAndParallelAgree(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		res, err := Run[int](context.Background(), squares{n: 9, failAt: -1}, Options[int]{Start: 2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Points, want(2, 9)) || res.Partial || res.Start != 2 || res.NextIndex != 9 {
			t.Fatalf("workers %d: %+v", workers, res)
		}
	}
}

// TestRunPrefixAndOnPoint resumes after a checkpointed prefix: the prefix
// re-enters the result verbatim, and the hook sees each new point in
// ascending order.
func TestRunPrefixAndOnPoint(t *testing.T) {
	var seen []int
	res, err := Run[int](context.Background(), squares{n: 6, failAt: -1}, Options[int]{
		Start:   3,
		Prefix:  want(0, 3),
		Workers: 8, // ignored: a hooked run is sequential
		OnPoint: func(i, p int) error {
			seen = append(seen, i)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Points, want(0, 6)) || res.Start != 0 || res.NextIndex != 6 {
		t.Fatalf("resumed run: %+v", res)
	}
	if !reflect.DeepEqual(seen, []int{3, 4, 5}) {
		t.Fatalf("hook saw %v", seen)
	}
	// A run resumed at its end evaluates nothing and keeps the prefix.
	res, err = Run[int](context.Background(), squares{n: 3, failAt: -1}, Options[int]{Start: 3, Prefix: want(0, 3)})
	if err != nil || !reflect.DeepEqual(res.Points, want(0, 3)) || res.Partial {
		t.Fatalf("run at end: %+v, %v", res, err)
	}
}

func TestRunRejectsBadStart(t *testing.T) {
	for _, opts := range []Options[int]{{Start: -1}, {Start: 5}, {Start: 1, Prefix: []int{0, 1}}} {
		if _, err := Run[int](context.Background(), squares{n: 4, failAt: -1}, opts); err == nil {
			t.Fatalf("options %+v accepted", opts)
		}
	}
}

// TestRunCancelIsPartial: a context error truncates to the completed
// prefix, sequentially and in parallel.
func TestRunCancelIsPartial(t *testing.T) {
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		sc := squares{n: 50, failAt: -1, before: func(i int) {
			if i == 4 {
				cancel()
			}
		}}
		res, err := Run[int](ctx, sc, Options[int]{Workers: workers})
		cancel()
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if !res.Partial || res.NextIndex > 5 || !reflect.DeepEqual(res.Points, want(0, res.NextIndex)) {
			t.Fatalf("workers %d: %+v", workers, res)
		}
	}
}

// TestRunFailures: a point error, a hook error and an injected fault fail
// the run with the point's index — never a partial result.
func TestRunFailures(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Run[int](context.Background(), squares{n: 8, failAt: 5}, Options[int]{Workers: workers})
		if !errors.Is(err, errBoom) || err.Error() != "point 5: boom" {
			t.Fatalf("workers %d: %v", workers, err)
		}
	}
	_, err := Run[int](context.Background(), squares{n: 8, failAt: -1}, Options[int]{
		OnPoint: func(i, _ int) error {
			if i == 2 {
				return errBoom
			}
			return nil
		},
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("hook error: %v", err)
	}
	inj, err := fault.New(1, fault.Rule{Site: fault.SiteSweepPoint, Kind: fault.KindError, Every: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := fault.ContextWith(context.Background(), inj)
	if _, err := Run[int](ctx, squares{n: 8, failAt: -1}, Options[int]{Site: fault.SiteSweepPoint}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("injected fault: %v", err)
	}
	if _, err := Run[int](ctx, squares{n: 8, failAt: -1}, Options[int]{}); err != nil {
		t.Fatalf("a run without a site hit one: %v", err)
	}
}

func TestBestIsEarliestMaximum(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	for _, tc := range []struct {
		pts  []int
		want int
	}{{nil, -1}, {[]int{3}, 0}, {[]int{1, 5, 2, 5, 4}, 1}, {[]int{7, 7, 7}, 0}, {[]int{1, 2, 3}, 2}} {
		if got := Best(tc.pts, less); got != tc.want {
			t.Fatalf("Best(%v) = %d, want %d", tc.pts, got, tc.want)
		}
	}
}

func TestRatioRule(t *testing.T) {
	r, err := Ratio(numeric.FromInt(3), numeric.FromInt(2))
	if err != nil || !r.Equal(numeric.New(3, 2)) {
		t.Fatalf("3/2: %v %v", r, err)
	}
	if r, err := Ratio(numeric.Zero, numeric.Zero); err != nil || !r.Equal(numeric.One) {
		t.Fatalf("0/0: %v %v", r, err)
	}
	if _, err := Ratio(numeric.One, numeric.Zero); err == nil {
		t.Fatal("positive utility from zero honest utility accepted")
	}
}
