package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer's public API.
// Spans of one request share Req; Parent is the id of the span that caused
// this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is a span name's layer: the part before the first dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id and start offset; finish closes it.
func (t *tracer) begin() (id, start int64) {
	if t == nil {
		return 0, 0
	}
	return t.next.Add(1), int64(time.Since(t.epoch))
}

func (t *tracer) finish(id, start, parent, req int64, name string) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, parent, req int64, fn func()) {
	id, start := t.begin()
	fn()
	t.finish(id, start, parent, req, name)
}

// record adds a span whose times were taken elsewhere (e.g. inside an
// HTTP handler wrapper).
func (t *tracer) record(s span) {
	if t == nil {
		return
	}
	s.ID = t.next.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) since() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write saves every span, one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// nameStat is the self-time summary of all spans sharing a name.
type nameStat struct {
	Count  int
	SelfNS int64
	DurNS  int64
}

// selfTimes returns, per span name, the count, the total duration and the
// total self time: each span's duration minus the part of its interval
// covered by its children (overlapping children counted once).
func selfTimes(spans []span) map[string]nameStat {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]nameStat)
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		st.DurNS += s.dur()
		st.SelfNS += s.dur() - covered(s, children[s.ID])
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// layerSelf sums self time per layer.
func layerSelf(stats map[string]nameStat) map[string]int64 {
	out := make(map[string]int64)
	for name, st := range stats {
		out[span{Name: name}.layer()] += st.SelfNS
	}
	return out
}

// logLayers prints the per-name and per-layer self-time table to stderr.
func logLayers(stats map[string]nameStat) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := stats[n]
		logf("  span %-28s count %8d  self %10.3f ms  total %10.3f ms", n, st.Count, float64(st.SelfNS)/1e6, float64(st.DurNS)/1e6)
	}
	for l, ns := range layerSelf(stats) {
		logf("  layer %-27s self %10.3f ms", l, float64(ns)/1e6)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
