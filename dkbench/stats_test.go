package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{{10, 1}, {50, 5}, {90, 9}, {99, 10}, {100, 10}} {
		if got := percentile(slices.Clone(s), c.p); got != c.want {
			t.Errorf("p%v of 1..10 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestFailuresRankBeyondEveryPercentile(t *testing.T) {
	var l latencies
	for i := 1; i <= 90; i++ {
		l.add(float64(i))
	}
	for range 10 {
		l.fail()
	}
	if l.attempted() != 100 {
		t.Fatalf("attempted = %d, want 100", l.attempted())
	}
	if got := l.pct(90); got != 90 {
		t.Errorf("p90 with 10%% failed = %v, want the slowest success 90", got)
	}
	if got := l.pct(91); !math.IsInf(got, 1) {
		t.Errorf("p91 with 10%% failed = %v, want +Inf", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25];
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0];
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 2}, 1, 2, 4},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestPoissonScheduleIsSeededAndHitsTheRate(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 5000, 50000)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 5000, 50000)
	if !slices.Equal(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if !slices.IsSorted(a) {
		t.Fatal("schedule is not in send order")
	}
	rate := float64(len(a)) / a[len(a)-1].Seconds()
	if math.Abs(rate-5000)/5000 > 0.02 {
		t.Errorf("offered rate %.1f/s, want 5000/s within 2%%", rate)
	}
}

// fakeClock advances only when the sender sleeps (oversleeping by slack)
// or when a send takes time.
type fakeClock struct {
	now   time.Duration
	slack time.Duration
}

func (c *fakeClock) Now() time.Duration    { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now += d + c.slack }

func TestTimingRuleDoesNotChargeTimerSlack(t *testing.T) {
	clk := &fakeClock{slack: time.Millisecond}
	due := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond}
	var origins, lates []time.Duration
	pace(due, clk, func(i int, origin, late time.Duration) bool {
		origins, lates = append(origins, origin), append(lates, late)
		clk.now += 50 * time.Microsecond // the server answers fast
		return true
	})
	// Each request is timed from the moment the sender woke, 1ms after
	// its due time, so its latency is the 50µs the server took.
	if want := []time.Duration{11 * time.Millisecond, 21 * time.Millisecond}; !slices.Equal(origins, want) {
		t.Errorf("origins = %v, want %v", origins, want)
	}
	if want := []time.Duration{time.Millisecond, time.Millisecond}; !slices.Equal(lates, want) {
		t.Errorf("lateness = %v, want %v", lates, want)
	}
}

func TestTimingRuleChargesASenderStall(t *testing.T) {
	clk := &fakeClock{}
	due := []time.Duration{10 * time.Millisecond, 11 * time.Millisecond, 12 * time.Millisecond, 40 * time.Millisecond}
	var origins []time.Duration
	pace(due, clk, func(i int, origin, _ time.Duration) bool {
		origins = append(origins, origin)
		if i == 0 {
			clk.now += 25 * time.Millisecond // a stall: the first send blocks
		}
		return true
	})
	// The requests due during the stall are timed from their due times,
	// so the 25ms the sender lost is charged to them; the last one is
	// sent after a sleep and timed from its wake-up.
	want := []time.Duration{10 * time.Millisecond, 11 * time.Millisecond, 12 * time.Millisecond, 40 * time.Millisecond}
	if !slices.Equal(origins, want) {
		t.Errorf("origins = %v, want %v", origins, want)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 3 * ms, End: 6 * ms},  // overlaps a by 1ms
		{ID: 4, Parent: 1, Name: "c", Start: 9 * ms, End: 12 * ms}, // runs past its parent
		{ID: 5, Parent: 2, Name: "a1", Start: 2 * ms, End: 3 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 10*ms - 5*ms - 1*ms, 2: 2 * ms, 3: 3 * ms, 4: 3 * ms, 5: 1 * ms} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestTracerNilIsFree(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 1)
	tr.end(id)
	if id != 0 || tr.add("y", 0, 1, 0, 1) != 0 {
		t.Fatal("a nil tracer recorded a span")
	}
	tr = newTracer(time.Now())
	root := tr.begin("root", 0, 7)
	child := tr.begin("child", root, 7)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[0].End < tr.spans[1].End {
		t.Fatalf("spans = %+v", tr.spans)
	}
}
