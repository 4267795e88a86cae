package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples, which it sorts in place. It returns 0 for no samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(p / 100 * float64(len(samples))))
	rank = min(max(rank, 1), len(samples))
	return samples[rank-1]
}

// median is the 50th percentile of samples, averaging the two middle
// values of an even count. It does not reorder samples.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the highest of the 90th, 99th, 99.9th and
// 99.99th percentiles that has at least ten of n samples beyond it, or 0
// when even the 90th has fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{90, 99, 99.9, 99.99} {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// latencies collects one timing per request plus the failures counted
// against the same attempts. A failed request lies beyond every
// percentile: it is ranked as +Inf, so failures push percentiles up
// instead of vanishing from the sample.
type latencies struct {
	ok     []float64
	failed int
}

func (l *latencies) add(v float64) { l.ok = append(l.ok, v) }
func (l *latencies) fail()         { l.failed++ }
func (l *latencies) attempted() int {
	return len(l.ok) + l.failed
}

// pct returns the p-th percentile over every attempt, +Inf when the rank
// falls among the failures.
func (l *latencies) pct(p float64) float64 {
	all := make([]float64, 0, l.attempted())
	all = append(all, l.ok...)
	for range l.failed {
		all = append(all, math.Inf(1))
	}
	return percentile(all, p)
}

// quartiles returns the first quartile, median and third quartile of
// values the way Python's statistics.quantiles(values, n=4) does (the
// "exclusive" method), which is how run-to-run spread is judged.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// statistics.quantiles, method="exclusive", transcribed.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// poissonSchedule returns n send offsets of a Poisson arrival process at
// rate requests per second, drawn from rng: exponential gaps, cumulated.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
	}
	return due
}

// clock is the time source an open-loop sender paces against; times are
// offsets from the schedule's origin.
type clock interface {
	Now() time.Duration
	Sleep(d time.Duration)
}

// wallClock is the real clock, anchored at origin.
type wallClock struct{ origin time.Time }

func (c wallClock) Now() time.Duration    { return time.Since(c.origin) }
func (c wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// pace drives an open-loop sender over due offsets. Before each request
// it sleeps until the request is due, unless it is already late. It then
// calls send with the request's timing origin and the sender's lateness.
//
// The origin follows the timing rule: the later of the due time and the
// moment the sender last woke from sleep. Timer slack (waking after the
// due time) is therefore not charged to the server, but a sender that
// falls behind because send blocked — a stall, or a wait on a busy
// connection — keeps its older wake time, so every request due since is
// timed from its due time and the wait is charged. lateness is how long
// after its due time the request was actually sent. pace stops early
// when send returns false.
func pace(due []time.Duration, clk clock, send func(i int, origin, lateness time.Duration) bool) {
	lastWake := time.Duration(math.MinInt64)
	for i, d := range due {
		now := clk.Now()
		if now < d {
			clk.Sleep(d - now)
			now = clk.Now()
			lastWake = now
		}
		if !send(i, max(d, lastWake), now-d) {
			return
		}
	}
}

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int
	Parent int // 0 for a root span
	Req    int64
	Name   string
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory; the benchmark writes them out at exit.
// A nil *tracer records nothing, so untraced code paths call it freely.
// It is not safe for concurrent use: give each goroutine its own.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: time.Since(t.origin)})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.origin)
}

// add records an already-timed span, for calls timed by other means.
func (t *tracer) add(name string, parent int, req int64, start, end time.Duration) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return len(t.spans)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children count
// once, and a child's part outside the parent does not count).
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		c := kids[s.ID]
		sort.Slice(c, func(i, j int) bool { return c[i].Start < c[j].Start })
		covered := time.Duration(0)
		curLo, curHi := time.Duration(0), time.Duration(-1)
		for _, k := range c {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = lo, hi
			} else if hi > curHi {
				curHi = hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}
