package main

import (
	"path/filepath"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100) with children a [10,40) and b [30,60) overlapping, and
	// c [90,120) running past the root's end; a has a child d [15,25).
	spans := []span{
		{ID: 1, Name: "root.x", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a.x", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b.x", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c.x", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "d.x", Start: 15, End: 25},
		{ID: 6, Name: "a.x", Start: 200, End: 205},
	}
	st := selfTimes(spans)
	want := map[string]nameStat{
		// covered: [10,60) ∪ [90,100) = 60
		"root.x": {Count: 1, SelfNS: 40, DurNS: 100},
		"a.x":    {Count: 2, SelfNS: 20 + 5, DurNS: 35},
		"b.x":    {Count: 1, SelfNS: 30, DurNS: 30},
		"c.x":    {Count: 1, SelfNS: 30, DurNS: 30},
		"d.x":    {Count: 1, SelfNS: 10, DurNS: 10},
	}
	for name, w := range want {
		if st[name] != w {
			t.Errorf("%s: %+v, want %+v", name, st[name], w)
		}
	}
	layers := layerSelf(st)
	if layers["a"] != 25 || layers["root"] != 40 {
		t.Errorf("layer self times %v", layers)
	}
}

func TestSelfTimesAddUpWithoutOverlap(t *testing.T) {
	// Sequential children: the layer self times sum to the root duration.
	spans := []span{{ID: 1, Name: "p.root", Start: 0, End: 1000}}
	start := int64(7)
	for i, d := range []int64{100, 250, 300, 200} {
		spans = append(spans, span{ID: int64(i + 2), Parent: 1, Name: "layer.step", Start: start, End: start + d})
		start += d + 3
	}
	var sum int64
	for _, ns := range layerSelf(selfTimes(spans)) {
		sum += ns
	}
	if sum != 1000 {
		t.Errorf("self times sum to %d, want the root's 1000", sum)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x.y", 0, 0, func() { ran = true })
	if !ran || tr.all() != nil {
		t.Error("nil tracer must run fn and record nothing")
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	tr := newTracer()
	tr.do("outer.call", 0, 9, func() {
		tr.do("inner.call", 1, 9, func() {})
	})
	spans := tr.all()
	if len(spans) != 2 {
		t.Fatalf("%d spans", len(spans))
	}
	for _, s := range spans {
		if s.Req != 9 || s.End < s.Start || s.ID == 0 {
			t.Errorf("bad span %+v", s)
		}
	}
	if err := tr.write(filepath.Join(t.TempDir(), "spans.jsonl")); err != nil {
		t.Fatal(err)
	}
}
