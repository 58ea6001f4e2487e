package main

import (
	"math"
	"testing"
	"time"
)

// twoSpeedPacer is a halted pacer whose kernel ran at the reference time
// for one second and at twice it for the next.
func twoSpeedPacer() *pacer {
	start := time.Unix(1000, 0)
	var samples []paceSample
	for t := time.Duration(0); t < 2*time.Second; t += paceEvery {
		ns := float64(paceRefNS)
		if t >= time.Second {
			ns *= 2
		}
		samples = append(samples, paceSample{at: start.Add(t), ns: ns})
	}
	return &pacer{start: start, pace: slicePaces(start, samples)}
}

func TestSlicePaces(t *testing.T) {
	p := twoSpeedPacer()
	want := []float64{1, 1, 0.5, 0.5}
	if len(p.pace) != len(want) {
		t.Fatalf("paces %v, want %v", p.pace, want)
	}
	for i := range want {
		if p.pace[i] != (slicePace{want[i], 1}) {
			t.Fatalf("paces %v, want %v", p.pace, want)
		}
	}
}

func TestSlicePacesBorrowsNearestSamples(t *testing.T) {
	start := time.Unix(1000, 0)
	// Three samples in the first slice, then a gap, then ten in the third.
	var samples []paceSample
	for i := 0; i < 3; i++ {
		samples = append(samples, paceSample{at: start.Add(time.Duration(i) * paceEvery), ns: paceRefNS})
	}
	for i := 0; i < 10; i++ {
		samples = append(samples, paceSample{at: start.Add(2*paceSlice + time.Duration(i)*paceEvery), ns: 4 * paceRefNS})
	}
	got := slicePaces(start, samples)
	// Slice 0 pools its 3 samples with the 6 nearest after them (median
	// 4×); slice 1 has none and borrows 9 (all from the third slice's side
	// but for the 3 early ones: median 4×); slice 2 has 10 of its own.
	for i, g := range got {
		if g.speed != 0.25 {
			t.Errorf("slice %d pace %g, want 0.25 (paces %v)", i, g, got)
		}
	}
}

func TestSlicePacesTakesOutStolenTime(t *testing.T) {
	start := time.Unix(1000, 0)
	var samples []paceSample
	for i := 0; i < 25; i++ {
		// Every 20 ms the CPUs run 3 ticks and the hypervisor takes 1.
		samples = append(samples, paceSample{at: start.Add(time.Duration(i) * paceEvery), ns: paceRefNS, busy: uint64(3 * i), stolen: uint64(i)})
	}
	got := slicePaces(start, samples)
	if len(got) != 1 || got[0] != (slicePace{1, 0.75}) {
		t.Fatalf("paces %v, want [{1 0.75}]", got)
	}
	p := &pacer{start: start, pace: got}
	if d := p.scaled(start, start.Add(time.Second)); d != 750*time.Millisecond {
		t.Errorf("scaled second %v, want 750ms", d)
	}
}

func TestSlicePacesWidensForTicks(t *testing.T) {
	start := time.Unix(1000, 0)
	var samples []paceSample
	for i := 0; i < 50; i++ {
		// The first slice sees one stolen tick and none busy: alone it
		// would say the guest never ran.
		x := paceSample{at: start.Add(time.Duration(i) * paceEvery), ns: paceRefNS}
		if i >= 1 {
			x.stolen = 1
		}
		if i >= 25 {
			x.busy = uint64(3 * (i - 24))
		}
		samples = append(samples, x)
	}
	got := slicePaces(start, samples)
	if len(got) != 2 || got[0].kept != 21.0/22 {
		t.Fatalf("paces %v, want the first slice's kept share 21/22", got)
	}
}

func TestScaled(t *testing.T) {
	p := twoSpeedPacer()
	s := p.start
	for _, c := range []struct {
		from, to time.Duration
		want     time.Duration
	}{
		{0, 2 * time.Second, 1500 * time.Millisecond},
		{750 * time.Millisecond, 1250 * time.Millisecond, 375 * time.Millisecond},
		{1500 * time.Millisecond, 3 * time.Second, 750 * time.Millisecond}, // after the last slice: its pace
		{-time.Second, 0, time.Second},                                     // before the first: its pace
		{time.Second, time.Second, 0},
	} {
		got := p.scaled(s.Add(c.from), s.Add(c.to))
		if math.Abs(float64(got-c.want)) > 1 {
			t.Errorf("scaled(%v, %v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if got := p.seconds(interval{s.Add(1200 * time.Millisecond), s.Add(1210 * time.Millisecond)}); math.Abs(got-0.005) > 1e-12 {
		t.Errorf("seconds over 10 ms at half pace = %g, want 0.005", got)
	}
}

func TestPacerSamples(t *testing.T) {
	p := startPacer()
	time.Sleep(10 * paceEvery)
	p.halt()
	p.halt() // a second halt does nothing
	if len(p.samples) == 0 || len(p.pace) == 0 {
		t.Fatalf("pacer took %d samples, %d slices", len(p.samples), len(p.pace))
	}
	if p.samples[0].busy == 0 {
		t.Error("no busy ticks read from /proc/stat")
	}
	if threadCPU() <= 0 {
		t.Error("thread CPU clock unreadable")
	}
	for _, v := range p.pace {
		if !(v.speed > 0) || math.IsInf(v.speed, 0) || !(v.kept > 0 && v.kept <= 1) {
			t.Fatalf("pace %v", p.pace)
		}
	}
}
