package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// tailQuantiles are the percentiles a tail is reported at, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.9, 0.5}

// minBeyond is how many samples must lie above a percentile before it is
// reported: a p99 of 200 samples is two samples, not a tail.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// sample with at least a q share of the samples at or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// beyond counts the samples of an n-sample set that lie above its
// nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// median returns the median of xs without modifying it (NaN when empty).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is the highest percentile of a sample set that has at least
// minBeyond samples above it.
type tail struct {
	Q     float64 // the percentile, as a fraction (0.99 for p99)
	Value float64
	N     int // samples in the set
}

// highestTail returns the highest of tailQuantiles with at least minBeyond
// samples beyond it; ok is false when not even the median qualifies.
func highestTail(xs []float64) (t tail, ok bool) {
	s := sortedCopy(xs)
	for _, q := range tailQuantiles {
		if beyond(len(s), q) >= minBeyond {
			return tail{Q: q, Value: quantile(s, q), N: len(s)}, true
		}
	}
	return tail{N: len(s)}, false
}

// latencySummary is what a workload reports for one latency population.
type latencySummary struct {
	P50, P90 float64 // ms, over all samples
	// P99 is the median over consecutive windows, each just large enough
	// to leave minBeyond samples beyond its percentile (1,000 samples), so
	// one stall on a shared host moves one window, not the result. Windows
	// counts them.
	P99     float64
	Windows int
	N       int
	// Tail is the highest percentile of all samples with minBeyond
	// samples beyond it; a P99 needs Tail.Q >= 0.99.
	Tail tail
}

// summarize summarizes latencies given in the order they were due.
func summarize(ms []float64) latencySummary {
	s := sortedCopy(ms)
	t, _ := highestTail(s)
	out := latencySummary{P50: quantile(s, 0.5), P90: quantile(s, 0.9), N: len(s), Tail: t}
	out.P99, out.Windows = windowedQuantile(ms, 0.99)
	return out
}

// set reports the summary's per-layer metrics p50_ms, p90_ms and p99_ms.
// The sample and window counts behind p99_ms go to the workload's log
// line.
func (l latencySummary) set(res *result) {
	res.set("p50_ms", l.P50, "ms")
	res.set("p90_ms", l.P90, "ms")
	res.set("p99_ms", l.P99, "ms")
}

// windowedQuantile splits samples into consecutive windows of the fewest
// samples that leave minBeyond beyond the q-quantile, and returns the
// median of the windows' q-quantiles and the window count. With fewer
// samples than one window it falls back to the q-quantile of all.
func windowedQuantile(xs []float64, q float64) (float64, int) {
	size := int(math.Round(float64(minBeyond) / (1 - q)))
	for beyond(size, q) < minBeyond {
		size++
	}
	k := len(xs) / size
	if k < 1 {
		return quantile(sortedCopy(xs), q), 0
	}
	per := make([]float64, k)
	for w := range per {
		per[w] = quantile(sortedCopy(xs[w*len(xs)/k:(w+1)*len(xs)/k]), q)
	}
	return median(per), k
}

// windowRate is the median over whole one-second windows (from start) of
// the work completed in each over the window's length as scale gives it
// (wall time or the pacer's scaled time); with under two whole windows it
// is the overall rate.
func windowRate(start time.Time, done []time.Time, work []int, dur time.Duration, scale func(from, to time.Time) time.Duration) float64 {
	k := int(dur / time.Second)
	if k < 2 {
		total := 0
		for _, w := range work {
			total += w
		}
		return float64(total) / scale(start, start.Add(dur)).Seconds()
	}
	per := make([]float64, k)
	for i, at := range done {
		if w := int(at.Sub(start) / time.Second); w >= 0 && w < k {
			per[w] += float64(work[i])
		}
	}
	for w := range per {
		from := start.Add(time.Duration(w) * time.Second)
		per[w] /= scale(from, from.Add(time.Second)).Seconds()
	}
	return median(per)
}

// wall is the identity scale: an interval's wall time.
func wall(from, to time.Time) time.Duration { return to.Sub(from) }

// opCounts counts one load phase's operations against its attempts. Every
// attempted operation ends as exactly one of ok, failed (non-2xx other than
// a shed, or a transport error), shed (429) or wrong (a 2xx whose answer
// the oracle rejected).
type opCounts struct {
	Sent, OK, Failed, Shed, Wrong int
}

func (c *opCounts) add(o opCounts) {
	c.Sent += o.Sent
	c.OK += o.OK
	c.Failed += o.Failed
	c.Shed += o.Shed
	c.Wrong += o.Wrong
}

// bad is every operation that did not succeed.
func (c opCounts) bad() int { return c.Failed + c.Shed + c.Wrong }

// failRatio is bad operations over attempts (0 with no attempts).
func (c opCounts) failRatio() float64 {
	if c.Sent == 0 {
		return 0
	}
	return float64(c.bad()) / float64(c.Sent)
}

// recorder collects per-operation samples from concurrent workers.
type recorder struct {
	mu      sync.Mutex
	counts  opCounts
	latency []float64 // ms, from due time (open loop) or send time (closed)
	late    []float64 // ms the generator sent after the due time (open loop)
	txns    int       // transactions in successful operations
	// doneAt and doneTxns record each successful operation's completion,
	// for windowed rates.
	doneAt   []time.Time
	doneTxns []int
}

// observe records one finished operation. due is when it was scheduled,
// sent when it actually left, done when its answer was checked; result
// classifies it. Failed and shed operations count as missing any latency
// limit, so they enter the latency population as +Inf.
func (r *recorder) observe(due, sent, done time.Time, result opResult, txns int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts.Sent++
	lat := float64(done.Sub(due)) / 1e6
	switch result {
	case resultOK:
		r.counts.OK++
		r.txns += txns
		r.doneAt = append(r.doneAt, done)
		r.doneTxns = append(r.doneTxns, txns)
	case resultShed:
		r.counts.Shed++
		lat = math.Inf(1)
	case resultWrong:
		r.counts.Wrong++
		lat = math.Inf(1)
	default:
		r.counts.Failed++
		lat = math.Inf(1)
	}
	r.latency = append(r.latency, lat)
	r.late = append(r.late, float64(sent.Sub(due))/1e6)
}

type opResult int

const (
	resultOK opResult = iota
	resultFailed
	resultShed
	resultWrong
)
