package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// tailLadder is the set of percentiles tail_ms may report, lowest first.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond the reported tail
// percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile of sorted: the value
// at rank ceil(p/100·n), 1-based. It returns NaN on an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[pctRank(len(sorted), p)-1]
}

// pctRank is the 1-based nearest rank of the p-th percentile of n samples.
func pctRank(n int, p float64) int {
	// The epsilon keeps float error from pushing an exact rank (99.99% of
	// 100000) up by one.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tail is the highest percentile of tailLadder with at least minBeyond
// samples beyond it, with its value and how many samples lie beyond it.
type tail struct {
	Pct    float64 `json:"pct"`
	Value  float64 `json:"value"`
	Beyond int     `json:"beyond"`
	N      int     `json:"samples"`
}

// tailOf applies the tail rule to sorted samples. With fewer than
// minBeyond+1 samples no percentile qualifies and the maximum is reported
// at pct 100.
func tailOf(sorted []float64) tail {
	n := len(sorted)
	t := tail{Pct: 100, N: n}
	if n > 0 {
		t.Value = sorted[n-1]
	}
	for _, p := range tailLadder {
		beyond := n - pctRank(n, p)
		if beyond < minBeyond {
			break
		}
		t = tail{Pct: p, Value: percentile(sorted, p), Beyond: beyond, N: n}
	}
	return t
}

// median is the middle of sorted (mean of the two middle values for an even
// count), the statistic used to fold repeated set-up and recovery timings.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digest is the short content hash the pinned answer tables hold: the first
// 12 hex digits of SHA-256.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:6])
}

// canonicalJSON re-encodes a JSON document with object keys sorted and no
// insignificant whitespace, so equal answers hash equally whatever their
// field order or spacing.
func canonicalJSON(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// selfTimes sums, per span name, each span's self time: its duration minus
// the part of its interval that its children cover (overlapping children
// are counted once, and children are clipped to the parent).
func selfTimes(root *obs.SpanSnapshot, into map[string]time.Duration) {
	root.Walk(func(sp *obs.SpanSnapshot) {
		into[sp.Name] += spanSelf(sp)
	})
}

func spanSelf(sp *obs.SpanSnapshot) time.Duration {
	start, end := sp.Start, sp.Start.Add(sp.Duration)
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(sp.Children))
	for _, ch := range sp.Children {
		a, b := ch.Start, ch.Start.Add(ch.Duration)
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var curA, curB time.Time
	for i, x := range ivs {
		if i == 0 || x.a.After(curB) {
			if i > 0 {
				covered += curB.Sub(curA)
			}
			curA, curB = x.a, x.b
			continue
		}
		if x.b.After(curB) {
			curB = x.b
		}
	}
	if len(ivs) > 0 {
		covered += curB.Sub(curA)
	}
	return sp.Duration - covered
}

// promSamples parses Prometheus text exposition into "name{labels}" →
// value. Comment lines are skipped; unparsable lines are ignored.
func promSamples(r io.Reader) map[string]float64 {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// delta is after[key] − before[key], treating a missing key as 0.
func delta(before, after map[string]float64, key string) float64 {
	return after[key] - before[key]
}

// ratio is num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
