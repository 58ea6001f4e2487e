package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0, 1}, {0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.99, 10}, {1, 10}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %g", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("even median %g", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestHighestTailNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		wantQ float64
		ok    bool
	}{
		{10, 0, false},   // the median leaves only 5 beyond
		{20, 0.5, true},  // 10 beyond the median
		{99, 0.5, true},  // p90 leaves 9
		{100, 0.9, true}, // p90 leaves exactly 10
		{999, 0.9, true}, // p99 leaves 9
		{1000, 0.99, true},
		{10000, 0.999, true},
	} {
		tl, ok := highestTail(seq(c.n))
		if ok != c.ok || tl.Q != c.wantQ || tl.N != c.n {
			t.Errorf("n=%d: got q=%g ok=%v N=%d, want q=%g ok=%v", c.n, tl.Q, ok, tl.N, c.wantQ, c.ok)
			continue
		}
		if ok && beyond(c.n, tl.Q) < minBeyond {
			t.Errorf("n=%d: p%g has %d samples beyond it", c.n, tl.Q*100, beyond(c.n, tl.Q))
		}
		if ok && tl.Value != quantile(seq(c.n), tl.Q) {
			t.Errorf("n=%d: tail value %g", c.n, tl.Value)
		}
	}
}

func TestWindowedQuantileIgnoresOneBadWindow(t *testing.T) {
	// 5,000 samples of 1 ms in five p99 windows; one window holds a 50 ms
	// stall long enough to own its p99.
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = 1
	}
	for i := 2000; i < 2100; i++ {
		xs[i] = 50
	}
	if got := quantile(sortedCopy(xs), 0.99); got != 50 {
		t.Fatalf("overall p99 %g, want the stall's 50", got)
	}
	v, k := windowedQuantile(xs, 0.99)
	if k != 5 || v != 1 {
		t.Errorf("windowed p99 %g over %d windows, want 1 over 5", v, k)
	}
	// p90 windows hold 100 samples each.
	if _, k := windowedQuantile(xs, 0.9); k != 50 {
		t.Errorf("%d p90 windows, want 50", k)
	}
	// Too few samples for one window: the plain quantile.
	if v, k := windowedQuantile([]float64{1, 2, 3}, 0.99); k != 0 || v != 3 {
		t.Errorf("short input: %g over %d windows", v, k)
	}
}

func TestWindowRate(t *testing.T) {
	start := time.Unix(0, 0)
	var done []time.Time
	var work []int
	// 100 units in second 0, 300 in second 1, 200 in second 2; work after
	// the last whole second is ignored.
	for s, n := range []int{100, 300, 200, 999} {
		done = append(done, start.Add(time.Duration(s)*time.Second+time.Millisecond))
		work = append(work, n)
	}
	if got := windowRate(start, done, work, 3500*time.Millisecond, wall); got != 200 {
		t.Errorf("window rate %g, want the median second's 200", got)
	}
	if got := windowRate(start, done[:1], work[:1], 500*time.Millisecond, wall); got != 200 {
		t.Errorf("short run rate %g, want the overall 100/0.5s", got)
	}
}

func TestRecorderCountsAndDueTime(t *testing.T) {
	var r recorder
	due := time.Unix(100, 0)
	// An on-time request, one sent 5 ms late (a stall upstream), and a
	// shed, a failure and a wrong answer.
	r.observe(due, due, due.Add(2*time.Millisecond), resultOK, 32)
	r.observe(due, due.Add(5*time.Millisecond), due.Add(7*time.Millisecond), resultOK, 32)
	r.observe(due, due, due.Add(time.Millisecond), resultShed, 32)
	r.observe(due, due, due.Add(time.Millisecond), resultFailed, 32)
	r.observe(due, due, due.Add(time.Millisecond), resultWrong, 32)
	want := opCounts{Sent: 5, OK: 2, Failed: 1, Shed: 1, Wrong: 1}
	if r.counts != want {
		t.Fatalf("counts %+v, want %+v", r.counts, want)
	}
	if r.txns != 64 {
		t.Errorf("txns %d, want only the successful 64", r.txns)
	}
	// The late request is timed from its due time, not its send time.
	if r.latency[1] != 7 {
		t.Errorf("late request latency %g ms, want 7 (from due time)", r.latency[1])
	}
	if r.late[1] != 5 {
		t.Errorf("lateness %g ms, want 5", r.late[1])
	}
	for _, i := range []int{2, 3, 4} {
		if !math.IsInf(r.latency[i], 1) {
			t.Errorf("bad request %d latency %g, want +Inf (misses every limit)", i, r.latency[i])
		}
	}
	if got := r.counts.failRatio(); got != 3.0/5 {
		t.Errorf("fail ratio %g, want 0.6", got)
	}
	if (opCounts{}).failRatio() != 0 {
		t.Error("fail ratio of no attempts")
	}
}
