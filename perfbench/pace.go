package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host pace. The benchmark runs on shared virtual machines whose speed
// follows their neighbours' load: the same code on the same 2-vCPU host
// ran cluster-basket at 3,600 to 8,700 txn/s in runs an hour apart, far
// past any bound a regression check can use. So every end-to-end time is
// reported at a reference pace. While a workload runs, a pacer goroutine
// takes the thread CPU time of a fixed reference kernel every paceEvery and
// reads the CPUs' busy and stolen ticks; each measured interval is scaled slice by slice by the
// slice's pace (slicePaces): how fast the kernel ran against paceRefNS,
// times the share of runnable time the hypervisor left the guest. The
// kernel is the benchmark's own code and calls nothing in the program: a
// change to the program moves a scaled time by the same share as the raw
// one, while a host that runs everything twice as slowly doubles both the
// interval and the kernel time (or the stolen share) and leaves the scaled
// time where it was. Raw times go to the log beside the scaled ones.

const (
	// paceEvery is the interval between kernel runs. Each runs the kernel
	// twice and times the second run: after a pause a first run finds its
	// data evicted and takes 2-5 times as long, however fast the host. The
	// pair takes about 0.3 ms on the reference host, so the pacer occupies
	// about 1.5% of one CPU, on every run, before and after a change.
	paceEvery = 20 * time.Millisecond
	// paceSlice is the span over which kernel times are pooled into one
	// pace: short enough to follow the host, long enough for 25 samples.
	paceSlice = 500 * time.Millisecond
	// paceMinSamples is the fewest kernel times a slice's pace is taken
	// from; a slice with fewer (the pacer's first and last) borrows the
	// nearest samples.
	paceMinSamples = 9
	// paceMinTicks is the fewest /proc/stat ticks (busy plus stolen, of
	// all CPUs) a slice's kept share is taken from; a slice with fewer
	// borrows its neighbours' samples.
	paceMinTicks = 20
	// paceRefNS is about the kernel's median time on the reference host
	// (the 2-vCPU Xeon VM the benchmark was written on): a scaled time is
	// what the interval would have taken there.
	paceRefNS = 100_000

	paceTableBits = 20 // 4 MiB of uint32: past the per-core caches
	paceMapKeys   = 1 << 14
	paceIters     = 4000
)

// refKernel is the reference work and its data, filled once per pacer.
type refKernel struct {
	table []uint32
	m     map[uint32]uint32
	sink  uint32
}

func newRefKernel() *refKernel {
	k := &refKernel{table: make([]uint32, 1<<paceTableBits), m: make(map[uint32]uint32, paceMapKeys)}
	x := uint32(88172645)
	for i := range k.table {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		k.table[i] = x
	}
	for key := uint32(0); key < paceMapKeys; key++ {
		k.m[key] = key
	}
	return k
}

// run is the reference work: random reads of a table larger than a core's
// caches and updates of existing keys in a Go map, the mix of memory
// traffic, hashing and branches the workloads' hot loops have. It
// allocates nothing, so it never waits on the garbage collector.
func (k *refKernel) run() {
	x := uint32(2463534242)
	var acc uint32
	for i := 0; i < paceIters; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		acc += k.table[x&(1<<paceTableBits-1)]
		k.m[x&(paceMapKeys-1)] += acc
	}
	k.sink += acc
}

// paceSample is one kernel run and the host's CPU counters when it began.
type paceSample struct {
	at time.Time
	ns float64 // the thread CPU time the timed kernel run took
	// busy and stolen are /proc/stat's cumulative ticks of all CPUs:
	// running (user, nice, system, irq, softirq) and runnable but taken
	// by the hypervisor (steal).
	busy, stolen uint64
}

// pacer samples the host's pace from start until halt.
type pacer struct {
	start    time.Time
	stop     chan struct{}
	done     chan struct{}
	haltOnce sync.Once
	samples  []paceSample // written by the pacer goroutine until done

	// pace is each slice's pace, set by halt; slice k starts at
	// start + k·paceSlice.
	pace []slicePace
}

func startPacer() *pacer {
	k := newRefKernel()
	p := &pacer{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		// The thread CPU clock is per OS thread: keep the kernel runs and
		// their clock readings on one.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(paceEvery)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			busy, stolen := cpuTicks()
			k.run()
			t0, c0 := time.Now(), threadCPU()
			k.run()
			d := threadCPU() - c0
			if c0 < 0 || d <= 0 {
				d = time.Since(t0)
			}
			p.samples = append(p.samples, paceSample{t0, float64(d), busy, stolen})
		}
	}()
	return p
}

// halt stops the pacer, waits for it, and computes the slices' paces.
// Scaling an interval is valid only after halt; later calls do nothing.
func (p *pacer) halt() {
	p.haltOnce.Do(func() {
		close(p.stop)
		<-p.done
		p.pace = slicePaces(p.start, p.samples)
		var speed, kept []float64
		for _, sp := range p.pace {
			speed = append(speed, sp.speed)
			kept = append(kept, sp.kept)
		}
		logf("host pace over %d slices of %v: speed %.3f, kept %.3f (medians)", len(p.pace), paceSlice, median(speed), median(kept))
	})
}

// threadCPU is the CPU time the calling OS thread has run (-1 where the
// clock cannot be read). It stands still while the thread waits for a
// CPU, behind the guest's other threads or the hypervisor's.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return -1
	}
	return time.Duration(ts.Nano())
}

// cpuTicks reads the busy and stolen ticks of all CPUs from /proc/stat
// (zeros where it cannot).
func cpuTicks() (busy, stolen uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var v [8]uint64
	for i := range v {
		v[i], _ = strconv.ParseUint(f[i+1], 10, 64)
	}
	// user nice system idle iowait irq softirq steal
	return v[0] + v[1] + v[2] + v[5] + v[6], v[7]
}

// slicePace is the host's pace over one slice.
type slicePace struct {
	// speed is paceRefNS over the median kernel CPU time of the slice's
	// samples. CPU time leaves out the waits behind other threads of the
	// guest (the workload's own, which are its cost) and behind the
	// hypervisor (counted by kept), so this is how fast the host runs the
	// guest while it runs: neighbours sharing its cores and caches.
	speed float64
	// kept is the share of the CPUs' runnable time the hypervisor left the
	// guest: how much of the time the guest runs at all.
	kept float64
}

// slicePaces pools samples (in time order) into paceSlice slices from
// start. A slice with fewer than paceMinSamples samples takes the
// paceMinSamples samples nearest its middle.
func slicePaces(start time.Time, samples []paceSample) []slicePace {
	if len(samples) == 0 {
		return []slicePace{{1, 1}}
	}
	at := func(i int) time.Time { return samples[i].at }
	k := int(at(len(samples)-1).Sub(start)/paceSlice) + 1
	out := make([]slicePace, k)
	for s := range out {
		lo := sort.Search(len(samples), func(i int) bool { return !at(i).Before(start.Add(time.Duration(s) * paceSlice)) })
		hi := sort.Search(len(samples), func(i int) bool { return !at(i).Before(start.Add(time.Duration(s+1) * paceSlice)) })
		if n := min(paceMinSamples, len(samples)); hi-lo < n {
			mid := start.Add(time.Duration(s)*paceSlice + paceSlice/2)
			lo = sort.Search(len(samples), func(i int) bool { return !at(i).Before(mid) })
			hi = lo
			for hi-lo < n {
				switch {
				case lo == 0:
					hi++
				case hi == len(samples) || mid.Sub(at(lo-1)) <= at(hi).Sub(mid):
					lo--
				default:
					hi++
				}
			}
		}
		ns := make([]float64, 0, hi-lo)
		for _, x := range samples[lo:hi] {
			ns = append(ns, x.ns)
		}
		// The tick counters advance in 10 ms steps: widen the range until
		// it holds paceMinTicks of them.
		ticks := func(a, b int) uint64 {
			return samples[b-1].busy + samples[b-1].stolen - samples[a].busy - samples[a].stolen
		}
		for ticks(lo, hi) < paceMinTicks && (lo > 0 || hi < len(samples)) {
			lo, hi = max(lo-1, 0), min(hi+1, len(samples))
		}
		kept := 1.0
		if ran := float64(samples[hi-1].busy - samples[lo].busy); ran > 0 {
			kept = ran / float64(ticks(lo, hi))
		}
		out[s] = slicePace{paceRefNS / median(ns), kept}
	}
	return out
}

// scaled returns how long [from, to) would have taken at the reference
// pace: each part of it in a slice weighs by the slice's speed times its
// kept share. Time before the first slice or after the last takes the
// nearest slice's pace. It suits stretches of work that span many of the
// hypervisor's preemptions (passes, one-second windows, whole streams), not
// the latency of one operation of a few milliseconds, which a preemption
// either misses or stretches many times over.
func (p *pacer) scaled(from, to time.Time) time.Duration {
	if !to.After(from) {
		return 0
	}
	var sum float64
	for t := from; t.Before(to); {
		k, end := 0, to
		if t.Before(p.start) {
			if p.start.Before(to) {
				end = p.start
			}
		} else if k = int(t.Sub(p.start) / paceSlice); k < len(p.pace)-1 {
			if e := p.start.Add(time.Duration(k+1) * paceSlice); e.Before(to) {
				end = e
			}
		} else {
			k = len(p.pace) - 1
		}
		sum += float64(end.Sub(t)) * p.pace[k].speed * p.pace[k].kept
		t = end
	}
	return time.Duration(sum)
}

// seconds is scaled in seconds.
func (p *pacer) seconds(iv interval) float64 { return p.scaled(iv.from, iv.to).Seconds() }

// interval is a measured stretch of wall time.
type interval struct{ from, to time.Time }

func (iv interval) seconds() float64 { return iv.to.Sub(iv.from).Seconds() }
